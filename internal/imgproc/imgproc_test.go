package imgproc

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestImageAccess(t *testing.T) {
	im := NewImage(8, 4)
	im.Set(3, 2, 200)
	if im.At(3, 2) != 200 {
		t.Error("round trip failed")
	}
	// Replicate padding.
	im.Set(0, 0, 17)
	if im.At(-5, -5) != 17 {
		t.Errorf("corner clamp = %d, want 17", im.At(-5, -5))
	}
	im.Set(7, 3, 99)
	if im.At(100, 100) != 99 {
		t.Errorf("far clamp = %d, want 99", im.At(100, 100))
	}
	// Out-of-bounds writes ignored.
	im.Set(-1, 0, 1)
	im.Set(8, 0, 1)
	if im.At(0, 0) != 17 {
		t.Error("out-of-bounds write corrupted data")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(rand.New(rand.NewSource(7)), ClassDiagonal, 32, 32)
	b := Generate(rand.New(rand.NewSource(7)), ClassDiagonal, 32, 32)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("same seed produced different images")
		}
	}
	c := Generate(rand.New(rand.NewSource(8)), ClassDiagonal, 32, 32)
	same := true
	for i := range a.Pix {
		if a.Pix[i] != c.Pix[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical images")
	}
}

func TestClassString(t *testing.T) {
	for class := Class(1); int(class) <= NumClasses; class++ {
		if class.String() == "" {
			t.Errorf("class %d has empty name", class)
		}
	}
	if got := Class(99).String(); got != "Class(99)" {
		t.Errorf("unknown class string = %q", got)
	}
}

func TestSobelOnRamp(t *testing.T) {
	// A pure horizontal ramp has Gx = 8*slope and Gy = 0 in the interior.
	im := NewImage(16, 16)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			im.Set(x, y, uint8(x*10))
		}
	}
	g, cycles := Sobel(im, DefaultCostModel())
	if cycles == 0 {
		t.Error("no cycles charged")
	}
	for y := 2; y < 14; y++ {
		for x := 2; x < 14; x++ {
			idx := y*16 + x
			if g.Gx[idx] != 80 {
				t.Fatalf("Gx at (%d,%d) = %d, want 80", x, y, g.Gx[idx])
			}
			if g.Gy[idx] != 0 {
				t.Fatalf("Gy at (%d,%d) = %d, want 0", x, y, g.Gy[idx])
			}
		}
	}
}

func TestSobelOnFlat(t *testing.T) {
	im := NewImage(8, 8)
	for i := range im.Pix {
		im.Pix[i] = 128
	}
	g, _ := Sobel(im, DefaultCostModel())
	for i := range g.Gx {
		if g.Gx[i] != 0 || g.Gy[i] != 0 {
			t.Fatal("flat image must have zero gradients")
		}
	}
}

func TestFeatureLength(t *testing.T) {
	fe := NewFeatureExtractor()
	n, err := fe.FeatureLength(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8*8*8 {
		t.Errorf("length = %d, want 512", n)
	}
	if _, err := fe.FeatureLength(60, 64); !errors.Is(err, ErrBadDimensions) {
		t.Errorf("bad width: %v", err)
	}
	if _, err := fe.FeatureLength(0, 64); !errors.Is(err, ErrBadDimensions) {
		t.Errorf("zero width: %v", err)
	}
	fe2 := &FeatureExtractor{cellSize: 16, orientationBins: 4}
	if n, err := fe2.FeatureLength(64, 64); err != nil || n != 4*4*4 {
		t.Errorf("custom extractor length = %d (%v), want 64", n, err)
	}
}

func TestFeaturesNormalised(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	im := Generate(rng, ClassChecker, 64, 64)
	g, _ := Sobel(im, DefaultCostModel())
	fe := NewFeatureExtractor()
	features, cycles, err := fe.Extract(g, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if cycles == 0 {
		t.Error("no cycles charged")
	}
	var norm float64
	for _, v := range features {
		if v < 0 {
			t.Fatal("negative histogram energy")
		}
		norm += v * v
	}
	if math.Abs(norm-1) > 1e-9 {
		t.Errorf("L2 norm = %g, want 1", math.Sqrt(norm))
	}
}

func TestOrientationSelectivity(t *testing.T) {
	// Horizontal stripes have vertical gradients (theta ~ pi/2); vertical
	// stripes have horizontal gradients (theta ~ 0). Their dominant bins
	// must differ.
	rng := rand.New(rand.NewSource(4))
	fe := NewFeatureExtractor()
	cost := DefaultCostModel()

	dominantBin := func(class Class) int {
		im := Generate(rng, class, 64, 64)
		g, _ := Sobel(im, cost)
		features, _, err := fe.Extract(g, cost)
		if err != nil {
			t.Fatal(err)
		}
		bins := make([]float64, 8)
		for i, v := range features {
			bins[i%8] += v
		}
		best := 0
		for i, v := range bins {
			if v > bins[best] {
				best = i
			}
		}
		return best
	}
	h := dominantBin(ClassHorizontal)
	v := dominantBin(ClassVertical)
	if h == v {
		t.Errorf("horizontal and vertical stripes share dominant bin %d", h)
	}
}

func TestClassifierAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pipe, err := TrainDefaultPipeline(rng, 64, 64, 6)
	if err != nil {
		t.Fatal(err)
	}
	correct, total := 0, 0
	for class := Class(1); int(class) <= NumClasses; class++ {
		for i := 0; i < 8; i++ {
			im := Generate(rng, class, 64, 64)
			res, err := pipe.Process(im)
			if err != nil {
				t.Fatal(err)
			}
			total++
			if res.Class == class {
				correct++
			}
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.85 {
		t.Errorf("accuracy = %.2f, want >= 0.85", acc)
	}
}

func TestCycleCalibration(t *testing.T) {
	// The paper: a 64x64 frame takes ~15 ms at 0.5 V, where the processor
	// model runs ~310 MHz -> ~4.7 M cycles. Assert the analytic count is in
	// a 3.5-5.5 M band.
	cm := DefaultCostModel()
	cycles := cm.FrameCycles(64, 64, 512, NumClasses)
	if cycles < 3_500_000 || cycles > 5_500_000 {
		t.Errorf("frame cycles = %d, want 3.5-5.5 M", cycles)
	}
}

func TestProcessChargesAnalyticCycles(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pipe, err := TrainDefaultPipeline(rng, 64, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	im := Generate(rng, ClassBlob, 64, 64)
	res, err := pipe.Process(im)
	if err != nil {
		t.Fatal(err)
	}
	want := pipe.Cost().FrameCycles(64, 64, 512, NumClasses)
	if res.Cycles != want {
		t.Errorf("charged %d cycles, analytic %d", res.Cycles, want)
	}
}

func TestBatchJob(t *testing.T) {
	cm := DefaultCostModel()
	job := cm.BatchJob(3, 64, 64, 512, NumClasses)
	if job.Frames != 3 {
		t.Errorf("frames = %d", job.Frames)
	}
	if job.Cycles != 3*cm.FrameCycles(64, 64, 512, NumClasses) {
		t.Error("batch cycles mismatch")
	}
}

func TestTrainClassifierErrors(t *testing.T) {
	if _, err := TrainClassifier(nil); !errors.Is(err, ErrEmptyTrainingSet) {
		t.Errorf("nil samples: %v", err)
	}
	if _, err := TrainClassifier(map[Class][][]float64{}); !errors.Is(err, ErrEmptyTrainingSet) {
		t.Errorf("empty samples: %v", err)
	}
	bad := map[Class][][]float64{
		ClassBlob: {{1, 2, 3}, {1, 2}},
	}
	if _, err := TrainClassifier(bad); !errors.Is(err, ErrFeatureLengthMismatch) {
		t.Errorf("ragged samples: %v", err)
	}
}

func TestClassifyErrors(t *testing.T) {
	c, err := TrainClassifier(map[Class][][]float64{ClassBlob: {{1, 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Classify([]float64{1, 2, 3}, DefaultCostModel()); !errors.Is(err, ErrFeatureLengthMismatch) {
		t.Errorf("length mismatch: %v", err)
	}
	empty := &Classifier{}
	if _, _, err := empty.Classify([]float64{1}, DefaultCostModel()); !errors.Is(err, ErrEmptyTrainingSet) {
		t.Errorf("untrained: %v", err)
	}
}

func TestExtractBadDimensions(t *testing.T) {
	g := &GradientField{Width: 30, Height: 30, Gx: make([]int32, 900), Gy: make([]int32, 900)}
	fe := NewFeatureExtractor() // 8x8 cells do not divide 30
	if _, _, err := fe.Extract(g, DefaultCostModel()); !errors.Is(err, ErrBadDimensions) {
		t.Errorf("want ErrBadDimensions, got %v", err)
	}
}

// Property: feature vectors are always unit-norm (or all-zero for flat
// frames) regardless of content.
func TestQuickFeatureNorm(t *testing.T) {
	fe := NewFeatureExtractor()
	cost := DefaultCostModel()
	f := func(seed int64, classRaw uint8) bool {
		class := Class(int(classRaw)%NumClasses + 1)
		im := Generate(rand.New(rand.NewSource(seed)), class, 32, 32)
		g, _ := Sobel(im, cost)
		features, _, err := fe.Extract(g, cost)
		if err != nil {
			return false
		}
		var norm float64
		for _, v := range features {
			norm += v * v
		}
		return math.Abs(norm-1) < 1e-9 || norm == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkProcessFrame(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pipe, err := TrainDefaultPipeline(rng, 64, 64, 3)
	if err != nil {
		b.Fatal(err)
	}
	im := Generate(rng, ClassChecker, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipe.Process(im); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEvaluateConfusionMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pipe, err := TrainDefaultPipeline(rng, 64, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(rng, pipe, 64, 64, 6)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Total != NumClasses*6 {
		t.Errorf("total = %d", ev.Total)
	}
	if ev.Accuracy < 0.8 {
		t.Errorf("accuracy %.2f, want >= 0.8", ev.Accuracy)
	}
	// Confusion rows sum to perClass; diagonal dominates.
	for c := 0; c < NumClasses; c++ {
		row := 0
		for p := 0; p < NumClasses; p++ {
			row += ev.Confusion[c][p]
		}
		if row != 6 {
			t.Errorf("row %d sums to %d", c, row)
		}
		if ev.PerClass[c] < 0.5 {
			t.Errorf("class %v recall %.2f, want >= 0.5", Class(c+1), ev.PerClass[c])
		}
	}
	// The string report mentions every class name.
	s := ev.String()
	for class := Class(1); int(class) <= NumClasses; class++ {
		if !strings.Contains(s, class.String()) {
			t.Errorf("report missing class %v", class)
		}
	}
	if _, err := Evaluate(rng, pipe, 64, 64, 0); err == nil {
		t.Error("zero perClass accepted")
	}
}
