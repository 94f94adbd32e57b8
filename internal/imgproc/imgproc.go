// Package imgproc is a functional model of the paper's pattern-recognition
// image processor (Sec. VII): "feature extraction and classification by
// using gradient feature vectors in a windowed frame". It implements the
// actual pipeline — Sobel gradients, windowed gradient-orientation
// histograms (HOG-style feature vectors), and a nearest-centroid classifier
// — together with a per-stage cycle-cost model so that every job yields the
// cycle count N consumed by the scheduling analyses (Eq. 8-11).
//
// The cost model is calibrated so a 64x64-pixel frame costs ~4.7 M cycles,
// which at the processor model's ~310 MHz at 0.5 V reproduces the paper's
// "about 15 ms to process at 0.5 V".
package imgproc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Errors returned by this package.
var (
	// ErrBadDimensions indicates image dimensions not divisible into the
	// configured cell grid.
	ErrBadDimensions = errors.New("imgproc: dimensions must be positive multiples of the cell size")

	// ErrEmptyTrainingSet indicates a classifier trained with no samples.
	ErrEmptyTrainingSet = errors.New("imgproc: empty training set")

	// ErrFeatureLengthMismatch indicates feature vectors of differing
	// lengths fed to the classifier.
	ErrFeatureLengthMismatch = errors.New("imgproc: feature vector length mismatch")
)

// Image is an 8-bit grayscale frame.
type Image struct {
	Width  int
	Height int
	Pix    []uint8 // row-major, len = Width*Height
}

// NewImage returns a zeroed frame of the given dimensions.
func NewImage(width, height int) *Image {
	return &Image{Width: width, Height: height, Pix: make([]uint8, width*height)}
}

// At returns the pixel value at (x, y). Out-of-bounds coordinates clamp to
// the nearest edge pixel (replicate padding), as the hardware's line buffers
// would.
func (im *Image) At(x, y int) uint8 {
	if x < 0 {
		x = 0
	}
	if x >= im.Width {
		x = im.Width - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= im.Height {
		y = im.Height - 1
	}
	return im.Pix[y*im.Width+x]
}

// Set writes the pixel value at (x, y); out-of-bounds writes are ignored.
func (im *Image) Set(x, y int, v uint8) {
	if x < 0 || x >= im.Width || y < 0 || y >= im.Height {
		return
	}
	im.Pix[y*im.Width+x] = v
}

// Class labels the synthetic pattern families used to exercise the
// classifier. They mimic the oriented-feature patterns a gradient-based
// recogniser distinguishes well.
type Class int

// Pattern classes. Values start at 1 so the zero value is invalid.
const (
	ClassHorizontal Class = iota + 1 // horizontal stripes
	ClassVertical                    // vertical stripes
	ClassDiagonal                    // diagonal stripes
	ClassBlob                        // centred bright blob
	ClassChecker                     // checkerboard
)

// NumClasses is the number of synthetic pattern classes.
const NumClasses = 5

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassHorizontal:
		return "horizontal"
	case ClassVertical:
		return "vertical"
	case ClassDiagonal:
		return "diagonal"
	case ClassBlob:
		return "blob"
	case ClassChecker:
		return "checker"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Generate renders a synthetic frame of the given class with additive noise
// drawn from rng. Determinism follows from the caller's seed.
func Generate(rng *rand.Rand, class Class, width, height int) *Image {
	im := NewImage(width, height)
	period := 8 + rng.Intn(8)
	phase := rng.Intn(period)
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			var base float64
			switch class {
			case ClassHorizontal:
				base = stripe(y+phase, period)
			case ClassVertical:
				base = stripe(x+phase, period)
			case ClassDiagonal:
				base = stripe(x+y+phase, period)
			case ClassBlob:
				dx := float64(x-width/2) / float64(width)
				dy := float64(y-height/2) / float64(height)
				base = 255 * math.Exp(-12*(dx*dx+dy*dy))
			case ClassChecker:
				if ((x+phase)/period+(y+phase)/period)%2 == 0 {
					base = 220
				} else {
					base = 35
				}
			}
			v := base + rng.NormFloat64()*12
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			im.Set(x, y, uint8(v))
		}
	}
	return im
}

// stripe returns a bright/dark square wave value for coordinate u.
func stripe(u, period int) float64 {
	if (u/period)%2 == 0 {
		return 220
	}
	return 35
}

// GradientField holds per-pixel Sobel gradients.
type GradientField struct {
	Width  int
	Height int
	Gx     []int32 // horizontal gradient, row-major
	Gy     []int32 // vertical gradient, row-major
}

// Sobel computes 3x3 Sobel gradients with replicate padding. It returns the
// field and the cycle cost charged by the processor's cost model.
func Sobel(im *Image, cost *CostModel) (*GradientField, uint64) {
	g := &GradientField{
		Width:  im.Width,
		Height: im.Height,
		Gx:     make([]int32, im.Width*im.Height),
		Gy:     make([]int32, im.Width*im.Height),
	}
	for y := 0; y < im.Height; y++ {
		for x := 0; x < im.Width; x++ {
			p00 := int32(im.At(x-1, y-1))
			p10 := int32(im.At(x, y-1))
			p20 := int32(im.At(x+1, y-1))
			p01 := int32(im.At(x-1, y))
			p21 := int32(im.At(x+1, y))
			p02 := int32(im.At(x-1, y+1))
			p12 := int32(im.At(x, y+1))
			p22 := int32(im.At(x+1, y+1))
			idx := y*im.Width + x
			g.Gx[idx] = (p20 + 2*p21 + p22) - (p00 + 2*p01 + p02)
			g.Gy[idx] = (p02 + 2*p12 + p22) - (p00 + 2*p10 + p20)
		}
	}
	return g, cost.gradientCycles(im.Width, im.Height)
}

// FeatureExtractor converts gradient fields into windowed orientation-
// histogram feature vectors. Construct with NewFeatureExtractor.
type FeatureExtractor struct {
	cellSize        int // square cell edge in pixels
	orientationBins int // histogram bins over [0, pi)
}

// NewFeatureExtractor returns an extractor with 8x8-pixel cells and 8
// orientation bins.
func NewFeatureExtractor() *FeatureExtractor {
	return &FeatureExtractor{cellSize: 8, orientationBins: 8}
}

// FeatureLength returns the feature vector length for a frame of the given
// dimensions, or an error if the frame does not divide into whole cells.
func (fe *FeatureExtractor) FeatureLength(width, height int) (int, error) {
	if width <= 0 || height <= 0 || width%fe.cellSize != 0 || height%fe.cellSize != 0 {
		return 0, fmt.Errorf("%w: %dx%d with cell %d", ErrBadDimensions, width, height, fe.cellSize)
	}
	return (width / fe.cellSize) * (height / fe.cellSize) * fe.orientationBins, nil
}

// Extract computes the windowed gradient-orientation histogram feature
// vector for the field and the cycle cost charged. Each cell accumulates
// gradient magnitude into orientation bins; the full vector is then
// L2-normalised so lighting variations cancel.
func (fe *FeatureExtractor) Extract(g *GradientField, cost *CostModel) ([]float64, uint64, error) {
	n, err := fe.FeatureLength(g.Width, g.Height)
	if err != nil {
		return nil, 0, err
	}
	cellsX := g.Width / fe.cellSize
	features := make([]float64, n)
	for y := 0; y < g.Height; y++ {
		for x := 0; x < g.Width; x++ {
			idx := y*g.Width + x
			gx, gy := float64(g.Gx[idx]), float64(g.Gy[idx])
			mag := math.Sqrt(gx*gx + gy*gy)
			if mag == 0 {
				continue
			}
			theta := math.Atan2(gy, gx) // (-pi, pi]
			if theta < 0 {
				theta += math.Pi // fold to [0, pi): orientation, not direction
			}
			bin := int(theta / math.Pi * float64(fe.orientationBins))
			if bin >= fe.orientationBins {
				bin = fe.orientationBins - 1
			}
			cell := (y/fe.cellSize)*cellsX + x/fe.cellSize
			features[cell*fe.orientationBins+bin] += mag
		}
	}
	var norm float64
	for _, v := range features {
		norm += v * v
	}
	if norm > 0 {
		inv := 1 / math.Sqrt(norm)
		for i := range features {
			features[i] *= inv
		}
	}
	return features, cost.featureCycles(g.Width, g.Height, n), nil
}

// Classifier is a nearest-centroid classifier over feature vectors, the
// kind of lightweight matcher a 65 nm recognition core implements.
type Classifier struct {
	classes   []Class
	centroids [][]float64
}

// TrainClassifier fits one centroid per class from the given labelled
// feature vectors. All vectors must share one length.
func TrainClassifier(samples map[Class][][]float64) (*Classifier, error) {
	if len(samples) == 0 {
		return nil, ErrEmptyTrainingSet
	}
	c := &Classifier{}
	length := -1
	for class := Class(1); int(class) <= NumClasses; class++ {
		vecs, ok := samples[class]
		if !ok || len(vecs) == 0 {
			continue
		}
		if length == -1 {
			length = len(vecs[0])
		}
		centroid := make([]float64, length)
		for _, v := range vecs {
			if len(v) != length {
				return nil, fmt.Errorf("%w: got %d, want %d", ErrFeatureLengthMismatch, len(v), length)
			}
			for i, x := range v {
				centroid[i] += x
			}
		}
		inv := 1 / float64(len(vecs))
		for i := range centroid {
			centroid[i] *= inv
		}
		c.classes = append(c.classes, class)
		c.centroids = append(c.centroids, centroid)
	}
	if len(c.classes) == 0 {
		return nil, ErrEmptyTrainingSet
	}
	return c, nil
}

// Classify returns the nearest-centroid class for the feature vector and
// the cycle cost charged.
func (c *Classifier) Classify(features []float64, cost *CostModel) (Class, uint64, error) {
	if len(c.centroids) == 0 {
		return 0, 0, ErrEmptyTrainingSet
	}
	if len(features) != len(c.centroids[0]) {
		return 0, 0, fmt.Errorf("%w: got %d, want %d", ErrFeatureLengthMismatch, len(features), len(c.centroids[0]))
	}
	best, bestDist := c.classes[0], math.Inf(1)
	for k, centroid := range c.centroids {
		var d float64
		for i, x := range features {
			diff := x - centroid[i]
			d += diff * diff
		}
		if d < bestDist {
			best, bestDist = c.classes[k], d
		}
	}
	return best, cost.classifyCycles(len(features), len(c.centroids)), nil
}
