package metrics

// Strict parser for the Prometheus text exposition format (version 0.0.4).
// ParseExposition validates the full grammar — not just "lines that look
// like metrics" — so the CI profile-smoke job and the serve tests can
// assert a live scrape is well-formed:
//
//   - every family has a # TYPE line, every sample belongs to a family it
//     announced, and a family's lines are contiguous (no interleaving);
//   - HELP/TYPE appear at most once per family, TYPE before any sample;
//   - metric and label names match the spec's character sets, label
//     values use only the \\, \", \n escapes, values parse as floats;
//   - histogram families carry a +Inf bucket per labelset, bucket bounds
//     (le) that parse as numbers other than NaN and strictly increase, so
//     no bucket follows +Inf, cumulative non-decreasing bucket counts, and
//     _count equal to the +Inf bucket;
//   - counters are finite and non-negative, and no series repeats.
//
// The parser accepts any conforming producer, not only this package's
// writer (label order within a sample is free, timestamps are allowed).

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Label is one parsed name="value" pair.
type Label struct{ Name, Value string }

// Sample is one parsed sample line.
type Sample struct {
	Name   string // full sample name (may carry _bucket/_sum/_count)
	Labels []Label
	Value  float64
}

// Family is one parsed metric family.
type Family struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// Label returns the sample's value for a label name ("" if absent).
func (s *Sample) Label(name string) string {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// Scrape is a parsed exposition.
type Scrape struct {
	Families []*Family
	byName   map[string]*Family
}

// Family returns a family by name, nil if absent.
func (s *Scrape) Family(name string) *Family { return s.byName[name] }

// validTypes are the exposition format's metric types.
var validTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true, "summary": true, "untyped": true,
}

// parseError annotates a failure with its line number.
func parseError(line int, format string, args ...any) error {
	return fmt.Errorf("metrics: parse line %d: %s", line, fmt.Sprintf(format, args...))
}

// ParseExposition reads and validates a full scrape.
func ParseExposition(r io.Reader) (*Scrape, error) {
	sc := &Scrape{byName: make(map[string]*Family)}
	var cur *Family // family currently being read (lines must be contiguous)
	seen := make(map[string]bool)

	// open returns the family a line belongs to, enforcing contiguity.
	open := func(n int, name string, create bool) (*Family, error) {
		if cur != nil && cur.Name == name {
			return cur, nil
		}
		if f, ok := sc.byName[name]; ok {
			return nil, parseError(n, "family %q reopened after other families (got %d samples already)", name, len(f.Samples))
		}
		if !create {
			return nil, nil
		}
		f := &Family{Name: name}
		sc.byName[name] = f
		sc.Families = append(sc.Families, f)
		cur = f
		return f, nil
	}

	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 64*1024), 1024*1024)
	n := 0
	for scanner.Scan() {
		n++
		line := scanner.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(sc, open, n, line); err != nil {
				return nil, err
			}
			continue
		}
		s, err := parseSample(n, line)
		if err != nil {
			return nil, err
		}
		famName := s.Name
		if f, ok := sc.byName[famName]; !ok || f.Type == "histogram" || f.Type == "summary" {
			// _bucket/_sum/_count belong to their base histogram family.
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				base := strings.TrimSuffix(s.Name, suf)
				if base != s.Name {
					if bf, ok := sc.byName[base]; ok && (bf.Type == "histogram" || bf.Type == "summary") {
						famName = base
						break
					}
				}
			}
		}
		f, err := open(n, famName, false)
		if err != nil {
			return nil, err
		}
		if f == nil {
			return nil, parseError(n, "sample %q without a preceding # TYPE", s.Name)
		}
		if f.Type == "" {
			return nil, parseError(n, "sample %q before its # TYPE line", s.Name)
		}
		if f.Type == "counter" && !(s.Value >= 0 && s.Value <= math.MaxFloat64) {
			return nil, parseError(n, "counter %q has value %g, not finite and non-negative", s.Name, s.Value)
		}
		key := seriesKey(s)
		if seen[key] {
			return nil, parseError(n, "duplicate series %s", key)
		}
		seen[key] = true
		f.Samples = append(f.Samples, s)
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("metrics: parse: %w", err)
	}

	for _, f := range sc.Families {
		if f.Type == "" {
			return nil, fmt.Errorf("metrics: family %q has no # TYPE line", f.Name)
		}
		if f.Type == "histogram" {
			if err := checkHistogram(f); err != nil {
				return nil, err
			}
		}
	}
	return sc, nil
}

// parseComment handles # HELP / # TYPE / free comments.
func parseComment(sc *Scrape, open func(int, string, bool) (*Family, error), n int, line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
		return nil // a free-form comment: legal, ignored
	}
	name := fields[2]
	if !nameOK(name) {
		return parseError(n, "invalid metric name %q", name)
	}
	f, err := open(n, name, true)
	if err != nil {
		return err
	}
	switch fields[1] {
	case "HELP":
		if f.Help != "" {
			return parseError(n, "second HELP for %q", name)
		}
		if len(fields) == 4 {
			f.Help = fields[3]
		} else {
			f.Help = " " // present but empty
		}
	case "TYPE":
		if f.Type != "" {
			return parseError(n, "second TYPE for %q", name)
		}
		if len(f.Samples) > 0 {
			return parseError(n, "TYPE after samples for %q", name)
		}
		if len(fields) != 4 || !validTypes[fields[3]] {
			return parseError(n, "invalid TYPE for %q: %v", name, fields[3:])
		}
		f.Type = fields[3]
	}
	return nil
}

// parseSample parses one `name[{labels}] value [timestamp]` line.
func parseSample(n int, line string) (Sample, error) {
	var s Sample
	i := 0
	for i < len(line) && isNameChar(line[i], i == 0) {
		i++
	}
	s.Name = line[:i]
	if !nameOK(s.Name) {
		return s, parseError(n, "invalid sample name in %q", line)
	}
	rest := line[i:]

	if strings.HasPrefix(rest, "{") {
		end, labels, err := parseLabels(n, rest)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[end:]
	}
	parts := strings.Fields(rest)
	if len(parts) == 0 {
		return s, parseError(n, "missing value in %q", line)
	}
	if len(parts) > 2 {
		return s, parseError(n, "trailing garbage in %q", line)
	}
	v, err := strconv.ParseFloat(parts[0], 64)
	if err != nil {
		return s, parseError(n, "bad value %q: %v", parts[0], err)
	}
	s.Value = v
	if len(parts) == 2 {
		if _, err := strconv.ParseInt(parts[1], 10, 64); err != nil {
			return s, parseError(n, "bad timestamp %q", parts[1])
		}
	}
	return s, nil
}

func isNameChar(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}

// parseLabels parses a `{a="x",b="y"}` block, returning its byte length.
func parseLabels(n int, s string) (int, []Label, error) {
	var labels []Label
	i := 1 // past '{'
	names := make(map[string]bool)
	for {
		for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return i + 1, labels, nil
		}
		start := i
		for i < len(s) && isNameChar(s[i], i == start) {
			i++
		}
		name := s[start:i]
		if name == "" || strings.Contains(name, ":") {
			return 0, nil, parseError(n, "invalid label name at %q", s[start:])
		}
		if names[name] {
			return 0, nil, parseError(n, "duplicate label %q", name)
		}
		names[name] = true
		if i >= len(s) || s[i] != '=' {
			return 0, nil, parseError(n, "missing '=' after label %q", name)
		}
		i++
		if i >= len(s) || s[i] != '"' {
			return 0, nil, parseError(n, "unquoted value for label %q", name)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return 0, nil, parseError(n, "unterminated value for label %q", name)
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				i++
				if i >= len(s) {
					return 0, nil, parseError(n, "dangling escape in label %q", name)
				}
				switch s[i] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return 0, nil, parseError(n, "invalid escape \\%c in label %q", s[i], name)
				}
				i++
				continue
			}
			val.WriteByte(c)
			i++
		}
		labels = append(labels, Label{Name: name, Value: val.String()})
		if i < len(s) && s[i] == ',' {
			i++
			continue
		}
		if i < len(s) && s[i] == '}' {
			return i + 1, labels, nil
		}
		return 0, nil, parseError(n, "expected ',' or '}' after label %q", name)
	}
}

// seriesKey identifies a series: name plus sorted label pairs.
func seriesKey(s Sample) string {
	pairs := make([]string, len(s.Labels))
	for i, l := range s.Labels {
		pairs[i] = l.Name + "=" + strconv.Quote(l.Value)
	}
	sort.Strings(pairs)
	return s.Name + "{" + strings.Join(pairs, ",") + "}"
}

// checkHistogram validates each labelset's bucket/sum/count contract.
func checkHistogram(f *Family) error {
	type agg struct {
		buckets  []Sample
		inf      *float64
		count    *float64
		sum      bool
		lastCum  float64
		lastLe   float64
		haveLast bool
	}
	groups := make(map[string]*agg)
	order := []string{}
	groupKey := func(s Sample) string {
		pairs := []string{}
		for _, l := range s.Labels {
			if l.Name != "le" {
				pairs = append(pairs, l.Name+"="+strconv.Quote(l.Value))
			}
		}
		sort.Strings(pairs)
		return strings.Join(pairs, ",")
	}
	get := func(k string) *agg {
		if g, ok := groups[k]; ok {
			return g
		}
		g := &agg{}
		groups[k] = g
		order = append(order, k)
		return g
	}
	for _, s := range f.Samples {
		g := get(groupKey(s))
		switch {
		case s.Name == f.Name+"_bucket":
			le := s.Label("le")
			if le == "" {
				return fmt.Errorf("metrics: %s_bucket without le label", f.Name)
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil || math.IsNaN(bound) {
				return fmt.Errorf("metrics: %s_bucket le=%q is not a number", f.Name, le)
			}
			if g.haveLast && !(bound > g.lastLe) {
				return fmt.Errorf("metrics: %s bucket le=%q does not exceed the bucket before it", f.Name, le)
			}
			if g.haveLast && !(s.Value >= g.lastCum) {
				return fmt.Errorf("metrics: %s buckets not cumulative at le=%q", f.Name, le)
			}
			g.lastCum, g.lastLe, g.haveLast = s.Value, bound, true
			if le == "+Inf" {
				v := s.Value
				g.inf = &v
			}
			g.buckets = append(g.buckets, s)
		case s.Name == f.Name+"_sum":
			g.sum = true
		case s.Name == f.Name+"_count":
			v := s.Value
			g.count = &v
		default:
			return fmt.Errorf("metrics: histogram %s has stray sample %s", f.Name, s.Name)
		}
	}
	for _, k := range order {
		g := groups[k]
		if g.inf == nil {
			return fmt.Errorf("metrics: histogram %s{%s} missing +Inf bucket", f.Name, k)
		}
		if g.count == nil || !g.sum {
			return fmt.Errorf("metrics: histogram %s{%s} missing _sum or _count", f.Name, k)
		}
		if *g.count != *g.inf {
			return fmt.Errorf("metrics: histogram %s{%s}: _count %g != +Inf bucket %g", f.Name, k, *g.count, *g.inf)
		}
	}
	return nil
}
