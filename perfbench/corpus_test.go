package main

import (
	"encoding/json"
	"reflect"
	"testing"

	repro "repro"
	"repro/internal/tune"
)

func TestCorpusIsKeyedBySeed(t *testing.T) {
	anchors := []anchor{{"tpch", 8}, {"oltp", 2}}
	gen := func(seed int64) []byte {
		c, err := newCorpus(seed, anchors)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(append(c.next(300), c.next(200)...))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b, other := gen(7), gen(7), gen(8)
	if string(a) != string(b) {
		t.Error("the same seed produced different corpora")
	}
	if string(a) == string(other) {
		t.Error("different seeds produced the same corpus")
	}
}

func TestCorpusRecordsLiveInTheRealSpaces(t *testing.T) {
	c, err := newCorpus(1, []anchor{{"mixed", 16}})
	if err != nil {
		t.Fatal(err)
	}
	recs := c.next(2000)
	systems := map[string]int{}
	for _, rec := range recs {
		systems[rec.System]++
		target, err := repro.NewTarget(rec.System, rec.Workload, 1)
		if err != nil {
			t.Fatal(err)
		}
		space := target.Space()
		if !reflect.DeepEqual(rec.ParamNames, space.Names()) {
			t.Fatalf("%s/%s record has parameters %v, want %v", rec.System, rec.Workload, rec.ParamNames, space.Names())
		}
		if got := tune.TransferConfigs(rec, space, repro.WarmSeeds); len(got) != repro.WarmSeeds {
			t.Fatalf("%s/%s record transfers %d seeds, want %d", rec.System, rec.Workload, len(got), repro.WarmSeeds)
		}
		for k, v := range rec.Features {
			if !(v == v) || v > 1e300 || v < -1e300 {
				t.Fatalf("%s/%s feature %s = %v", rec.System, rec.Workload, k, v)
			}
		}
	}
	for _, cs := range corpusSystems {
		if systems[cs.system] == 0 {
			t.Errorf("no %s records in 2000", cs.system)
		}
	}
}

// The first record is the anchor, with the exact features of the workload
// it stands for, so a warm lookup for that workload maps to it.
func TestCorpusAnchorsComeFirstWithExactFeatures(t *testing.T) {
	c, err := newCorpus(3, []anchor{{"oltp", 4}})
	if err != nil {
		t.Fatal(err)
	}
	recs := c.next(50)
	target, err := repro.NewTarget("dbms", "oltp", 99, repro.TargetOptions{ScaleGB: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := target.(tune.Describer).WorkloadFeatures()
	if recs[0].System != "dbms" || recs[0].Workload != "oltp" || !reflect.DeepEqual(recs[0].Features, want) {
		t.Fatalf("first record %s/%s %v, want the dbms/oltp anchor %v", recs[0].System, recs[0].Workload, recs[0].Features, want)
	}
	repo := &tune.Repository{Sessions: recs}
	if got := tune.NearestSession(repo.Sessions, want); got != 0 {
		t.Errorf("nearest session to the anchor's workload is %d, want 0", got)
	}
}
