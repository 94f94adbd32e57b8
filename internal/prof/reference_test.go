package prof

import "math"

// referencePayload is the payload oracle: the protobuf WritePprof must
// gzip for p, built the direct way, with one nested pbuf per stack, value
// pair and label and the locations and functions in side buffers.
func referencePayload(p *Profile) []byte {
	strs := newStringTable()
	var out pbuf

	// Sample types: (sim_seconds, nanoseconds), (energy_joules, femtojoules).
	for _, vt := range [][2]string{{"sim_seconds", "nanoseconds"}, {"energy_joules", "femtojoules"}} {
		var m pbuf
		m.intField(vtType, strs.index(vt[0]))
		m.intField(vtUnit, strs.index(vt[1]))
		out.bytesField(profSampleType, m.b)
	}

	// Functions and locations are 1:1: one per unique frame name, created
	// on first use so IDs follow encoding order deterministically.
	locByName := map[string]int64{}
	var fns, locs pbuf
	locOf := func(name string) int64 {
		if id, ok := locByName[name]; ok {
			return id
		}
		id := int64(len(locByName) + 1)
		locByName[name] = id
		var fn pbuf
		fn.intField(fnID, id)
		fn.intField(fnName, strs.index(name))
		fns.bytesField(profFunction, fn.b)
		var line pbuf
		line.intField(lineFunctionID, id)
		var loc pbuf
		loc.intField(locID, id)
		loc.bytesField(locLine, line.b)
		locs.bytesField(profLocation, loc.b)
		return id
	}

	var totalSeconds float64
	var samples pbuf
	for _, e := range p.Entries() {
		totalSeconds += e.Ledger.TotalSeconds()
		for b := 0; b < NumBins; b++ {
			ns := int64(math.Round(e.Ledger.Seconds[b] / secondsPerUnit))
			fj := int64(math.Round(e.Ledger.Joules[b] / joulesPerUnit))
			if ns == 0 && fj == 0 {
				continue
			}
			// Stack, leaf first: state < component < node < experiment.
			stack := []int64{locOf(Bin(b).State()), locOf(Bin(b).Component())}
			if e.Scope.Node != "" {
				stack = append(stack, locOf(e.Scope.Node))
			}
			if e.Scope.Experiment != "" {
				stack = append(stack, locOf(e.Scope.Experiment))
			}
			var m pbuf
			m.packedInts(sampleLocationID, stack)
			m.packedInts(sampleValue, []int64{ns, fj})
			for _, kv := range [][2]string{{"experiment", e.Scope.Experiment}, {"node", e.Scope.Node}} {
				if kv[1] == "" {
					continue
				}
				var lbl pbuf
				lbl.intField(labelKey, strs.index(kv[0]))
				lbl.intField(labelStr, strs.index(kv[1]))
				m.bytesField(sampleLabel, lbl.b)
			}
			samples.bytesField(profSample, m.b)
		}
	}

	out.b = append(out.b, samples.b...)
	out.b = append(out.b, locs.b...)
	out.b = append(out.b, fns.b...)
	for _, s := range strs.vals {
		out.stringField(profStringTable, s)
	}
	out.intField(profDuration, int64(math.Round(totalSeconds/secondsPerUnit)))
	return out.b
}

func (p *pbuf) bytesField(field int, b []byte) {
	p.tag(field, wireBytes)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

// packedInts writes a packed repeated integer field.
func (p *pbuf) packedInts(field int, vs []int64) {
	if len(vs) == 0 {
		return
	}
	var inner pbuf
	for _, v := range vs {
		inner.varint(uint64(v))
	}
	p.bytesField(field, inner.b)
}
