package bench

import "fmt"

// Runner regenerates one paper table or figure.
type Runner func(Config) (*Report, error)

// experiments is the registry: every experiment id with its runner, in the
// paper's order. Lookup (Run) and listing (IDs) both derive from it.
var experiments = []struct {
	ID  string
	Run Runner
}{
	{"table2", Table2},
	{"fig9", Fig9},
	{"table4", Table4},
	{"table5", Table5},
	{"table6", Table6},
	{"table7", Table7},
	{"fig10", Fig10},
	{"table8", Table8},
	{"table9", Table9},
	{"table10", Table10},
	{"table12", Table12},
	{"table13", Table13},
	{"fig15", Fig15},
	{"coverage", Coverage},
	{"drift", Drift},
	{"ablation-budget", AblationBudget},
	{"ablation-order", AblationOrdering},
	{"ablation-k", AblationK},
	{"ablation-model", AblationModelSelection},
	{"faults", Faults},
	{"serve", Serve},
	{"adapt", Adaptive},
	{"obs", Obs},
	{"stream", Stream},
	{"audit", Audit},
}

// IDs lists the experiment ids in registry order.
func IDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.ID
	}
	return ids
}

// Run executes one experiment by id.
func Run(id string, cfg Config) (*Report, error) {
	for _, e := range experiments {
		if e.ID == id {
			return e.Run(cfg)
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (known: %v)", id, IDs())
}
