package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"cachegenie/internal/orm"
	"cachegenie/internal/sqldb"
)

// TestTriggersRecordOpsAsData: a trigger body records plain ops that say what
// they do — a row moving between lists is a removal from one and an insert
// into the other, an edit in place a replace, a count a delta — and under
// the Invalidate strategy every one of them is its key's deletion.
func TestTriggersRecordOpsAsData(t *testing.T) {
	s := newStack(t)
	topk := s.cacheable(t, topkSpec(3, 1))
	count := s.cacheable(t, Spec{Name: "wall_count", Class: CountQuery, MainModel: "Wall", WhereFields: []string{"user_id"}})
	inval := s.cacheable(t, Spec{Name: "wall_of_user", Class: FeatureQuery, MainModel: "Wall",
		WhereFields: []string{"user_id"}, Strategy: Invalidate})
	at := sqldb.Time(time.Unix(1e6, 0))
	old := sqldb.Row{sqldb.I64(12), sqldb.I64(7), sqldb.Str("hi"), at}
	moved := sqldb.Row{sqldb.I64(12), sqldb.I64(8), sqldb.Str("hi"), at}
	edited := sqldb.Row{sqldb.I64(12), sqldb.I64(7), sqldb.Str("edited"), at}

	ws := &writeSet{g: s.g}
	fire := func(body triggerBody, op sqldb.TriggerOp, old, new sqldb.Row) {
		t.Helper()
		if err := body(ws, nil, sqldb.TriggerEvent{Table: "wall", Op: op, Old: old, New: new}); err != nil {
			t.Fatal(err)
		}
	}
	fire(topk.plans[0].fire, sqldb.TrigUpdate, old, moved)
	fire(topk.plans[0].fire, sqldb.TrigUpdate, old, edited)
	fire(topk.plans[0].fire, sqldb.TrigDelete, old, nil)
	fire(count.plans[0].fire, sqldb.TrigUpdate, old, moved)
	fire(count.plans[0].fire, sqldb.TrigUpdate, old, edited)
	fire(inval.plans[0].fire, sqldb.TrigInsert, nil, moved)
	fire(inval.plans[0].fire, sqldb.TrigUpdate, old, moved)

	var got []string
	for i := range ws.ops {
		got = append(got, ws.ops[i].String())
	}
	want := []string{
		"remove cg:latest_wall_posts:{7} pk=12",
		"insert cg:latest_wall_posts:{8} pk=12",
		"replace cg:latest_wall_posts:{7} pk=12",
		"remove cg:latest_wall_posts:{7} pk=12",
		"incr cg:wall_count:{7} -1",
		"incr cg:wall_count:{8} +1",
		"delete cg:wall_of_user:{8}",
		"delete cg:wall_of_user:{7}",
		"delete cg:wall_of_user:{8}",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("recorded\n%q\nwant\n%q", got, want)
	}

	// Link triggers fire inside a transaction, where the relation trigger
	// fetches the group a membership joins and the group trigger reverse-maps
	// through membership: users 7 and 8 are in group 1 (7 twice), 9 in 2.
	linkWant := map[Strategy][]string{
		UpdateInPlace: {
			"append cg:user_groups:{7} rows=1",
			"unlink cg:user_groups:{7} group_id=2",
			"unlink cg:user_groups:{7} group_id=2",
			"append cg:user_groups:{8} rows=1",
			"insert cg:user_groups:{7} pk=1",
			"insert cg:user_groups:{8} pk=1",
			"remove cg:user_groups:{9} pk=2",
			"replace cg:user_groups:{7} pk=1",
			"replace cg:user_groups:{8} pk=1",
			"remove cg:user_groups:{9} pk=2",
			"insert cg:user_groups:{7} pk=1",
			"insert cg:user_groups:{8} pk=1",
		},
		Invalidate: {
			"delete cg:user_groups:{7}",
			"delete cg:user_groups:{7}",
			"delete cg:user_groups:{7}",
			"delete cg:user_groups:{7}",
			"delete cg:user_groups:{8}",
			"delete cg:user_groups:{7}",
			"delete cg:user_groups:{8}",
			"delete cg:user_groups:{9}",
			"delete cg:user_groups:{7}",
			"delete cg:user_groups:{8}",
			"delete cg:user_groups:{9}",
			"delete cg:user_groups:{7}",
			"delete cg:user_groups:{8}",
		},
	}
	for _, strategy := range []Strategy{UpdateInPlace, Invalidate} {
		s := newStack(t)
		spec := linkSpec()
		spec.Strategy = strategy
		link := s.cacheable(t, spec)
		for _, name := range []string{"go", "dbs"} {
			if _, err := s.reg.Insert("Group", orm.Fields{"name": name}); err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range [][2]int{{7, 1}, {8, 1}, {7, 1}, {9, 2}} {
			if _, err := s.reg.Insert("Membership", orm.Fields{"user_id": m[0], "group_id": m[1]}); err != nil {
				t.Fatal(err)
			}
		}
		tx := s.db.Begin()
		ws := &writeSet{g: s.g}
		fire := func(body triggerBody, table string, op sqldb.TriggerOp, old, new sqldb.Row) {
			t.Helper()
			if err := body(ws, tx, sqldb.TriggerEvent{Table: table, Op: op, Old: old, New: new}); err != nil {
				t.Fatal(err)
			}
		}
		rel := func(id, user, group int64) sqldb.Row {
			return sqldb.Row{sqldb.I64(id), sqldb.I64(user), sqldb.I64(group)}
		}
		grp := func(id int64, name string) sqldb.Row { return sqldb.Row{sqldb.I64(id), sqldb.Str(name)} }
		through := func(op sqldb.TriggerOp) triggerBody { return link.plans[0].fire }
		target := func(op sqldb.TriggerOp) triggerBody { return link.plans[1].fire }
		fire(through(sqldb.TrigInsert), "membership", sqldb.TrigInsert, nil, rel(10, 7, 2))
		fire(through(sqldb.TrigInsert), "membership", sqldb.TrigInsert, nil, rel(11, 7, 99)) // joins nothing
		fire(through(sqldb.TrigDelete), "membership", sqldb.TrigDelete, rel(10, 7, 2), nil)
		fire(through(sqldb.TrigUpdate), "membership", sqldb.TrigUpdate, rel(10, 7, 2), rel(10, 8, 1))
		fire(through(sqldb.TrigUpdate), "membership", sqldb.TrigUpdate, rel(10, 7, 2), rel(10, 7, 2))
		fire(target(sqldb.TrigInsert), "groups", sqldb.TrigInsert, nil, grp(1, "go"))
		fire(target(sqldb.TrigDelete), "groups", sqldb.TrigDelete, grp(2, "dbs"), nil)
		fire(target(sqldb.TrigUpdate), "groups", sqldb.TrigUpdate, grp(1, "go"), grp(1, "golang"))
		fire(target(sqldb.TrigUpdate), "groups", sqldb.TrigUpdate, grp(2, "dbs"), grp(1, "dbs"))
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
		got = got[:0]
		for i := range ws.ops {
			got = append(got, ws.ops[i].String())
		}
		if !slices.Equal(got, linkWant[strategy]) {
			t.Errorf("%s link triggers recorded\n%q\nwant\n%q", strategy, got, linkWant[strategy])
		}
	}
}

// TestOpApply pins what each list edit does, per class, to a list of
// (pk, value) rows. A top-K list here sorts by value, descending, and holds
// K=2 plus a reserve of 1; a link list's target field and a relation row's
// join field are both column 1.
func TestOpApply(t *testing.T) {
	feature := &CachedObject{spec: Spec{Class: FeatureQuery}}
	topk := &CachedObject{spec: Spec{Class: TopKQuery, K: 2, Reserve: 1, SortDesc: true}, sortIdx: 1}
	link := &CachedObject{spec: Spec{Class: LinkQuery}, targetIdx: 1, joinIdx: 1}
	row := func(pk, v int64) sqldb.Row { return sqldb.Row{sqldb.I64(pk), sqldb.I64(v)} }
	list := func(pairs ...int64) payload {
		var p payload
		for i := 0; i < len(pairs); i += 2 {
			p.rows = append(p.rows, row(pairs[i], pairs[i+1]))
		}
		return p
	}
	render := func(p payload) string {
		s := ""
		for _, r := range p.rows {
			s += fmt.Sprintf("%d:%d ", r[0].I, r[1].I)
		}
		return s
	}
	for _, c := range []struct {
		name           string
		p              payload
		o              op
		want           string
		changed, short bool
	}{
		{"feature insert", list(1, 10), op{co: feature, kind: opInsert, new: row(2, 20)}, "1:10 2:20 ", true, false},
		{"feature insert present", list(1, 10), op{co: feature, kind: opInsert, new: row(1, 11)}, "1:10 ", false, false},
		{"feature remove", list(1, 10, 2, 20), op{co: feature, kind: opRemove, old: row(1, 10)}, "2:20 ", true, false},
		{"feature remove absent", list(1, 10), op{co: feature, kind: opRemove, old: row(3, 30)}, "1:10 ", false, false},
		{"feature replace", list(1, 10, 2, 20), op{co: feature, kind: opReplace, new: row(1, 15)}, "1:15 2:20 ", true, false},
		{"feature replace absent appends", list(1, 10), op{co: feature, kind: opReplace, new: row(2, 20)}, "1:10 2:20 ", true, false},
		{"link replace every copy", list(1, 10, 2, 20, 1, 10), op{co: link, kind: opReplace, new: row(1, 15)}, "1:15 2:20 1:15 ", true, false},
		{"link replace absent", list(1, 10), op{co: link, kind: opReplace, new: row(2, 20)}, "1:10 ", false, false},
		{"link remove every copy", list(1, 10, 2, 20, 1, 10), op{co: link, kind: opRemove, old: row(1, 10)}, "2:20 ", true, false},
		{"link append", list(1, 10), op{co: link, kind: opAppend, rows: []sqldb.Row{row(1, 10), row(2, 20)}}, "1:10 1:10 2:20 ", true, false},
		{"link unlink every joined row", list(1, 10, 2, 20, 3, 20), op{co: link, kind: opUnlink, old: row(9, 20)}, "1:10 ", true, false},
		{"link unlink one copy of each", list(2, 20, 1, 10, 2, 20, 3, 20, 3, 20), op{co: link, kind: opUnlink, old: row(9, 20)}, "1:10 2:20 3:20 ", true, false},
		{"link unlink none", list(1, 10), op{co: link, kind: opUnlink, old: row(9, 20)}, "1:10 ", false, false},
		{"topk insert in order", list(1, 30, 2, 10), op{co: topk, kind: opInsert, new: row(3, 20)}, "1:30 3:20 2:10 ", true, false},
		{"topk insert below a full window", list(1, 30, 2, 20, 3, 10), op{co: topk, kind: opInsert, new: row(4, 5)}, "1:30 2:20 3:10 ", false, false},
		{"topk insert below a short, non-exhaustive window", list(1, 30, 2, 20), op{co: topk, kind: opInsert, new: row(3, 10)}, "1:30 2:20 ", false, false},
		{"topk replace same sort value", list(1, 30, 2, 20), op{co: topk, kind: opReplace, old: row(2, 20), new: row(2, 20)}, "1:30 2:20 ", true, false},
		{"topk replace resorts", list(1, 30, 2, 20), op{co: topk, kind: opReplace, old: row(2, 20), new: row(2, 40)}, "2:40 1:30 ", true, false},
		{"topk replace enters the window", list(1, 30), op{co: topk, kind: opReplace, old: row(2, 20), new: row(2, 40)}, "2:40 1:30 ", true, false},
		{"topk replace moves below a non-exhaustive window", list(1, 30, 2, 20), op{co: topk, kind: opReplace, old: row(1, 30), new: row(1, 5)}, "2:20 ", true, true},
		{"topk remove leaves K", list(1, 30, 2, 20, 3, 10), op{co: topk, kind: opRemove, old: row(1, 30)}, "2:20 3:10 ", true, false},
		{"topk remove uses up the reserve", list(1, 30, 2, 20), op{co: topk, kind: opRemove, old: row(1, 30)}, "2:20 ", true, true},
	} {
		p := c.p
		changed, short := c.o.apply(&p)
		if got := render(p); got != c.want || changed != c.changed || short != c.short {
			t.Errorf("%s: list %q changed=%v short=%v, want %q %v %v", c.name, got, changed, short, c.want, c.changed, c.short)
		}
	}
	exhaustive := list(1, 30, 2, 20)
	exhaustive.exhaustive = true
	if _, short := (&op{co: topk, kind: opRemove, old: row(1, 30)}).apply(&exhaustive); short {
		t.Error("a removal from an exhaustive top-K list asked for a rebuild")
	}
}

// TestGroupByKey checks the flush's grouping against a map: one group per
// distinct key in the order keys first appear, each chaining its ops in
// record order with their count and summed deltas.
func TestGroupByKey(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 50; round++ {
		ops := make([]op, 1+rng.Intn(60))
		for i := range ops {
			ops[i] = op{key: fmt.Sprintf("cg:x:{%d}", rng.Intn(1+rng.Intn(20))), kind: opIncr, delta: int64(i)}
		}
		var order []string
		members := map[string][]int32{}
		for i, o := range ops {
			if members[o.key] == nil {
				order = append(order, o.key)
			}
			members[o.key] = append(members[o.key], int32(i))
		}
		groups := groupByKey(ops)
		if len(groups) != len(order) {
			t.Fatalf("round %d: %d groups for %d keys", round, len(groups), len(order))
		}
		for gi, k := range groups {
			var chain []int32
			var sum int64
			for i := k.first; i >= 0; i = ops[i].next {
				chain = append(chain, i)
				sum += ops[i].delta
			}
			if k.key != order[gi] || !slices.Equal(chain, members[k.key]) || k.n != len(chain) || k.sum != sum {
				t.Fatalf("round %d group %d: key %s chain %v n %d sum %d; want key %s chain %v",
					round, gi, k.key, chain, k.n, k.sum, order[gi], members[order[gi]])
			}
		}
	}
}
