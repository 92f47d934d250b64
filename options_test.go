package camelot

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"camelot/internal/core"
)

// exportedWiths lists the With* constructors camelot.go declares.
func exportedWiths(t *testing.T) []string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "camelot.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range file.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "With") {
			names = append(names, fn.Name.Name)
		}
	}
	return names
}

// changedFields names the core.Options fields in which got differs from
// base. Functions compare by identity, everything else by value.
func changedFields(base, got core.Options) []string {
	b, g := reflect.ValueOf(base), reflect.ValueOf(got)
	var names []string
	for i := range b.NumField() {
		same := reflect.DeepEqual(b.Field(i).Interface(), g.Field(i).Interface())
		if b.Field(i).Kind() == reflect.Func {
			same = b.Field(i).Pointer() == g.Field(i).Pointer()
		}
		if !same {
			names = append(names, b.Type().Field(i).Name)
		}
	}
	return names
}

// TestEveryOptionSetsItsField: a With* constructor is a setter of one
// field of core.Options and of nothing else, whether it reaches the
// record through NewCluster and Submit or through a one-shot call. A
// With* without a row here fails the test.
func TestEveryOptionSetsItsField(t *testing.T) {
	adversary := LyingNodes(7, 1)
	bus := func(k int) (Transport, error) { return NewBroadcastBus(k), nil }
	rows := []struct {
		with  string
		opt   Option
		field string
		want  any // nil: the field is a function, only its having changed is checked
	}{
		{"WithNodes", WithNodes(7), "Nodes", 7},
		{"WithMaxParallelism", WithMaxParallelism(3), "MaxParallelism", 3},
		{"WithTransport", WithTransport(bus), "NewTransport", nil},
		{"WithListenAddr", WithListenAddr("127.0.0.1:0"), "NewTransport", nil},
		{"WithFaultTolerance", WithFaultTolerance(5), "FaultTolerance", 5},
		{"WithAdversary", WithAdversary(adversary), "Adversary", adversary},
		{"WithSeed", WithSeed(11), "Seed", int64(11)},
		{"WithVerifyTrials", WithVerifyTrials(4), "VerifyTrials", 4},
		{"WithMaxErasures", WithMaxErasures(2), "MaxErasures", 2},
		{"WithGatherGrace", WithGatherGrace(time.Minute), "GatherGrace", time.Minute},
		{"WithMaxRepairRounds", WithMaxRepairRounds(6), "MaxRepairRounds", 6},
		{"WithPriority", WithPriority(9), "Priority", 9},
	}
	var covered []string
	for _, row := range rows {
		covered = append(covered, row.with)
		// The record Submit starts a run from after NewCluster, with the
		// option applied where its scope is accepted, and the record a
		// one-shot call starts from.
		var cl *Cluster
		var viaCluster core.Options
		switch o := row.opt.(type) {
		case ClusterOption:
			cl = NewCluster(o)
			viaCluster = resolve(cl.base, []RunOption(nil))
		case RunOption:
			cl = NewCluster()
			viaCluster = resolve(cl.base, []RunOption{o})
		}
		cl.Close()
		oneShot := resolve(DefaultCluster().base, []Option{row.opt})
		for path, got := range map[string]core.Options{"cluster": viaCluster, "one-shot": oneShot} {
			got.Pool, got.Geometry = nil, nil // a cluster's own, not an option's
			if changed := changedFields(core.Options{}, got); !slices.Equal(changed, []string{row.field}) {
				t.Errorf("%s, %s: sets fields %v, want [%s]", row.with, path, changed, row.field)
			}
			if v := reflect.ValueOf(got).FieldByName(row.field).Interface(); row.want != nil && !reflect.DeepEqual(v, row.want) {
				t.Errorf("%s, %s: %s = %v, want %v", row.with, path, row.field, v, row.want)
			}
		}
	}
	if declared := exportedWiths(t); !slices.Equal(declared, covered) {
		t.Errorf("camelot.go declares %v\nbut the table covers %v", declared, covered)
	}
}
