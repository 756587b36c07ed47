package bench

import (
	"fmt"
	"sort"
)

// Experiment is a named, runnable regeneration of one paper artifact.
type Experiment struct {
	Name  string
	Doc   string
	Run   func(Options) *Table
	Paper string // the table/claim in the paper this regenerates
}

var registry = map[string]Experiment{
	"motivation": {
		Name: "motivation", Paper: "§1 motivating claims",
		Doc: "misconfiguration degradation and tuning headroom across systems",
		Run: Motivation,
	},
	"table1": {
		Name: "table1", Paper: "Table 1",
		Doc: "six tuning categories compared quantitatively on three systems",
		Run: Table1,
	},
	"table2": {
		Name: "table2", Paper: "Table 2",
		Doc: "eleven DBMS tuning approaches reproduced and measured",
		Run: Table2,
	},
	"hadoopgap": {
		Name: "hadoopgap", Paper: "§2.3 (3.1–6.5× claim)",
		Doc: "Hadoop vs parallel DB on grep/aggregation/join; tuning closes the gap",
		Run: HadoopGap,
	},
	"sparkparams": {
		Name: "sparkparams", Paper: "§2.4 (~30 of ~200 claim)",
		Doc: "Plackett–Burman screening of the full Spark parameter surface",
		Run: SparkParams,
	},
	"heterogeneity": {
		Name: "heterogeneity", Paper: "§2.5 open challenge 1",
		Doc: "configuration transfer from homogeneous to heterogeneous clusters",
		Run: Heterogeneity,
	},
	"cloud": {
		Name: "cloud", Paper: "§2.5 open challenge 2",
		Doc: "tuning under multi-tenant noise; cost-aware provisioning",
		Run: Cloud,
	},
	"realtime": {
		Name: "realtime", Paper: "§2.5 open challenge 3",
		Doc: "streaming micro-batch latency: static vs adaptive configurations",
		Run: Realtime,
	},
	"transfer": {
		Name: "transfer", Paper: "§2.5 repository reuse (OtterTune lesson)",
		Doc: "cold vs warm start from the persistent repository on an unseen workload",
		Run: Transfer,
	},
	"fidelity": {
		Name: "fidelity", Paper: "§2.5 experiment cost (multi-fidelity allocation)",
		Doc: "Hyperband/successive-halving vs full-fidelity tuning: incumbent quality vs evaluation cost",
		Run: Fidelity,
	},
	"surrogate": {
		Name: "surrogate", Paper: "§2.5 model scalability (surrogate cost past the exact-GP wall)",
		Doc: "exact vs sparse-inducing surrogates: fit/score cost and posterior agreement",
		Run: Surrogate,
	},
	"drift": {
		Name: "drift", Paper: "§2.5 workload drift (dynamic workloads challenge)",
		Doc: "mid-session oltp→olap shift: static tuning vs windowed drift detection with session re-anchoring",
		Run: Drift,
	},
	"pareto": {
		Name: "pareto", Paper: "§2.5 multi-objective tuning (cost-aware provisioning)",
		Doc: "latency-vs-cost Pareto fronts: single-objective search vs scalarization-weight sweep",
		Run: Pareto,
	},
	"guardrail": {
		Name: "guardrail", Paper: "§2.5 safe exploration (production tuning constraint)",
		Doc: "objective guardrail: unscreened exploration vs GP-screened proposals, violations vs incumbent quality",
		Run: Guardrail,
	},
}

// Experiments lists registered experiment names, sorted.
func Experiments() []Experiment {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Experiment, 0, len(names))
	for _, n := range names {
		out = append(out, registry[n])
	}
	return out
}

// Run executes the named experiment.
func Run(name string, o Options) (*Table, error) {
	e, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have: %v)", name, names())
	}
	return e.Run(o), nil
}

func names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
