// Package bench regenerates every table and figure of the paper's
// evaluation (§8 and Appendix B) over the synthetic datasets. Each
// experiment is a function from a Config to a Report; cmd/ppbench prints
// them, the root package's benchmarks time them, and EXPERIMENTS.md records
// paper-versus-measured values.
package bench

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"probpred/internal/blob"
	"probpred/internal/core"
	"probpred/internal/data"
	"probpred/internal/mathx"
	"probpred/internal/metrics"
	"probpred/internal/svm"
)

// Config controls experiment scale.
type Config struct {
	// Seed drives all data generation and training.
	Seed uint64
	// Quick shrinks datasets for fast test runs; the full scale is used by
	// cmd/ppbench and the benchmarks.
	Quick bool
	// Metrics, when set, receives the serving telemetry of the servers the
	// experiments build (cmd/ppbench serves it on -metrics).
	Metrics *metrics.Registry
}

// scale returns quick when cfg.Quick, else full.
func (c Config) scale(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// Report is one regenerated table or figure.
type Report struct {
	// ID is the experiment identifier ("fig9", "table4", ...).
	ID string
	// Title describes what the paper's counterpart shows.
	Title string
	// Lines is the formatted output: a pure function of the Config, and
	// what testdata/quick_seed42.golden holds.
	Lines []string
	// Wall is the output that depends on the machine or on goroutine
	// interleaving: measured times, their ratios, counters a concurrent
	// replay splits differently from run to run, random trace IDs.
	Wall []string
	// Metrics carries the headline numbers machine-readably for the tests'
	// gates; the same values appear formatted in Lines or Wall.
	Metrics map[string]float64
}

// String renders the report's header and Lines.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteString("\n")
	}
	return b.String()
}

// Print writes the report as cmd/ppbench shows it: String to exact, then
// Wall and the time the experiment took to wall, then a blank line to
// exact. Given the Config, everything written to exact is the same on every
// machine and every run.
func (r *Report) Print(exact, wall io.Writer, took time.Duration) {
	io.WriteString(exact, r.String())
	for _, l := range r.Wall {
		fmt.Fprintln(wall, l)
	}
	fmt.Fprintf(wall, "(regenerated in %s)\n", took.Round(time.Millisecond))
	io.WriteString(exact, "\n")
}

func (r *Report) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func (r *Report) wallf(format string, args ...any) {
	r.Wall = append(r.Wall, fmt.Sprintf(format, args...))
}

// metric records one machine-readable headline value.
func (r *Report) metric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]float64{}
	}
	r.Metrics[name] = v
}

// table is a minimal fixed-width table formatter.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) render() []string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	out := []string{line(t.header)}
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	out = append(out, line(sep))
	for _, r := range t.rows {
		out = append(out, line(r))
	}
	return out
}

// datasetSpec pairs a categorical dataset with the PP approach that wins on
// it (the model-selection outcomes reported under Figure 9).
type datasetSpec struct {
	name     string
	approach string
	make     func(cfg Config) *data.Categorical
}

func specs(cfg Config) []datasetSpec {
	return []datasetSpec{
		{"lshtc", "FH+SVM", func(c Config) *data.Categorical {
			return data.LSHTC(data.LSHTCConfig{Docs: c.scale(3000, 1200), Seed: c.Seed})
		}},
		{"sun", "PCA+KDE", func(c Config) *data.Categorical { return data.SUNAttribute(c.Seed) }},
		{"ucf101", "PCA+KDE", func(c Config) *data.Categorical {
			return data.UCF101(data.UCFConfig{Clips: c.scale(2400, 1600), Seed: c.Seed})
		}},
		{"coco", "DNN", func(c Config) *data.Categorical { return data.COCO(c.Seed) }},
		{"imagenet", "DNN", func(c Config) *data.Categorical { return data.ImageNet(c.Seed) }},
	}
}

// categoryKey is every input of one trainCategoryPP training: the dataset
// generator's name, size and seed, the category, the approach and the
// training seed (which is also the generator's: every caller generates d
// from the seed it passes).
type categoryKey struct {
	dataset  string
	size     int
	cat      int
	approach string
	seed     uint64
}

// categoryPPs memoizes trainCategoryPP for the life of the process, so the
// experiments that evaluate the same PP (fig9, table4, table5, fig15) train
// it once. The PPs and test sets it returns are shared: callers only read
// them. The mutex makes concurrent Run calls safe.
var categoryPPs = struct {
	sync.Mutex
	m map[categoryKey]categoryPP
}{m: map[categoryKey]categoryPP{}}

type categoryPP struct {
	pp   *core.PP
	test blob.Set
}

// trainCategoryPP returns the PP for "has category cat", trained with a
// 60/20/20 split (§8.1), and its held-out test set; it trains each distinct
// key once (categoryPPs).
func trainCategoryPP(d *data.Categorical, cat int, approach string, seed uint64) (*core.PP, blob.Set, error) {
	key := categoryKey{d.Name, len(d.Blobs), cat, approach, seed}
	categoryPPs.Lock()
	defer categoryPPs.Unlock()
	if c, ok := categoryPPs.m[key]; ok {
		return c.pp, c.test, nil
	}
	set := d.SetFor(cat)
	rng := mathx.NewRNG(seed ^ uint64(cat)*0x9e37)
	train, val, test := set.Split(rng, 0.6, 0.2)
	clause := fmt.Sprintf("%s.cat=%d", d.Name, cat)
	cfg := core.TrainConfig{Approach: approach, Seed: seed + uint64(cat)}
	if approach == "DNN" {
		cfg.DNN.Epochs = 25
	}
	pp, err := core.Train(clause, train, val, cfg)
	if err != nil {
		return nil, blob.Set{}, fmt.Errorf("bench: training %s: %w", clause, err)
	}
	categoryPPs.m[key] = categoryPP{pp, test}
	return pp, test, nil
}

// pickCategories returns n category indices with enough positives for a
// stable validation split, preferring evenly spread selectivities.
func pickCategories(d *data.Categorical, n int, minPositives int) []int {
	var out []int
	for k := 0; k < d.NumCategories() && len(out) < n; k++ {
		if int(d.Selectivity(k)*float64(len(d.Blobs))) >= minPositives {
			out = append(out, k)
		}
	}
	return out
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// svmConfigForTraffic tunes the SVM for the 32-dim traffic embeddings: a
// few extra epochs help the narrow attribute margins.
func svmConfigForTraffic() svm.Config { return svm.Config{Epochs: 15} }
