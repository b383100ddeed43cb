package orm

import (
	"errors"
	"testing"
	"time"

	"cachegenie/internal/sqldb"
)

func newTestRegistry(t *testing.T) *Registry {
	t.Helper()
	db := sqldb.MustOpen(sqldb.Config{})
	reg := NewRegistry(db)
	reg.MustRegister(&ModelDef{
		Name:  "User",
		Table: "users",
		Fields: []FieldDef{
			{Name: "username", Type: sqldb.TypeText, NotNull: true},
			{Name: "active", Type: sqldb.TypeBool},
		},
		Unique: [][]string{{"username"}},
	})
	reg.MustRegister(&ModelDef{
		Name:  "Profile",
		Table: "profiles",
		Fields: []FieldDef{
			{Name: "user_id", Type: sqldb.TypeInt, NotNull: true},
			{Name: "bio", Type: sqldb.TypeText},
			{Name: "joined", Type: sqldb.TypeTime},
		},
		Indexes: [][]string{{"user_id"}},
	})
	reg.MustRegister(&ModelDef{
		Name:  "Group",
		Table: "groups",
		Fields: []FieldDef{
			{Name: "name", Type: sqldb.TypeText, NotNull: true},
		},
	})
	reg.MustRegister(&ModelDef{
		Name:  "Membership",
		Table: "membership",
		Fields: []FieldDef{
			{Name: "user_id", Type: sqldb.TypeInt, NotNull: true},
			{Name: "group_id", Type: sqldb.TypeInt, NotNull: true},
		},
		Indexes: [][]string{{"user_id"}, {"group_id"}},
	})
	if err := reg.CreateTables(); err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestInsertAndGet(t *testing.T) {
	reg := newTestRegistry(t)
	u, err := reg.Insert("User", Fields{"username": "alice", "active": true})
	if err != nil {
		t.Fatal(err)
	}
	if u.ID() != 1 || u.Str("username") != "alice" || !u.Bool("active") {
		t.Fatalf("user = %+v", u)
	}
	got, err := reg.Objects("User").Filter("id", u.ID()).Get()
	if err != nil {
		t.Fatal(err)
	}
	if got.Str("username") != "alice" {
		t.Fatalf("got = %+v", got)
	}
}

func TestGetNotFoundAndMultiple(t *testing.T) {
	reg := newTestRegistry(t)
	if _, err := reg.Objects("User").Filter("id", 99).Get(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	_, _ = reg.Insert("Profile", Fields{"user_id": 1, "bio": "a"})
	_, _ = reg.Insert("Profile", Fields{"user_id": 1, "bio": "b"})
	if _, err := reg.Objects("Profile").Filter("user_id", 1).Get(); !errors.Is(err, ErrMultiple) {
		t.Fatalf("err = %v", err)
	}
}

func TestFilterChainingAndOps(t *testing.T) {
	reg := newTestRegistry(t)
	for i := 1; i <= 5; i++ {
		_, err := reg.Insert("Profile", Fields{"user_id": i, "bio": "x"})
		if err != nil {
			t.Fatal(err)
		}
	}
	objs, err := reg.Objects("Profile").FilterOp("user_id", ">=", 2).FilterOp("user_id", "<", 5).All()
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 3 {
		t.Fatalf("got %d objects", len(objs))
	}
}

func TestFilterIn(t *testing.T) {
	reg := newTestRegistry(t)
	for i := 1; i <= 5; i++ {
		_, _ = reg.Insert("Profile", Fields{"user_id": i})
	}
	objs, err := reg.Objects("Profile").FilterIn("user_id", 1, 3, 9).All()
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("got %d objects", len(objs))
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	reg := newTestRegistry(t)
	base := time.Unix(10000, 0)
	for i := 0; i < 6; i++ {
		_, _ = reg.Insert("Profile", Fields{
			"user_id": 1, "bio": string(rune('a' + i)),
			"joined": base.Add(time.Duration(i) * time.Hour),
		})
	}
	objs, err := reg.Objects("Profile").Filter("user_id", 1).OrderBy("-joined").Limit(2).All()
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 || objs[0].Str("bio") != "f" || objs[1].Str("bio") != "e" {
		t.Fatalf("objs = %v %v", objs[0].Str("bio"), objs[1].Str("bio"))
	}
	objs, err = reg.Objects("Profile").Filter("user_id", 1).OrderBy("joined").Offset(4).All()
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 || objs[0].Str("bio") != "e" {
		t.Fatalf("offset objs wrong: %d", len(objs))
	}
}

func TestCount(t *testing.T) {
	reg := newTestRegistry(t)
	for i := 0; i < 7; i++ {
		_, _ = reg.Insert("Profile", Fields{"user_id": i % 2})
	}
	n, err := reg.Objects("Profile").Filter("user_id", 0).Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("count = %d", n)
	}
}

func TestUpdateDelete(t *testing.T) {
	reg := newTestRegistry(t)
	_, _ = reg.Insert("Profile", Fields{"user_id": 1, "bio": "old"})
	_, _ = reg.Insert("Profile", Fields{"user_id": 2, "bio": "old"})
	n, err := reg.Objects("Profile").Filter("user_id", 1).Update(Fields{"bio": "new"})
	if err != nil || n != 1 {
		t.Fatalf("update n=%d err=%v", n, err)
	}
	o, _ := reg.Objects("Profile").Filter("user_id", 1).Get()
	if o.Str("bio") != "new" {
		t.Fatalf("bio = %q", o.Str("bio"))
	}
	n, err = reg.Objects("Profile").Filter("user_id", 2).Delete()
	if err != nil || n != 1 {
		t.Fatalf("delete n=%d err=%v", n, err)
	}
	total, _ := reg.Objects("Profile").Count()
	if total != 1 {
		t.Fatalf("total = %d", total)
	}
}

func TestUniqueConstraintThroughORM(t *testing.T) {
	reg := newTestRegistry(t)
	if _, err := reg.Insert("User", Fields{"username": "bob"}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Insert("User", Fields{"username": "bob"}); err == nil {
		t.Fatal("duplicate username accepted")
	}
}

func TestViaJoin(t *testing.T) {
	reg := newTestRegistry(t)
	alice, _ := reg.Insert("User", Fields{"username": "alice"})
	gGo, _ := reg.Insert("Group", Fields{"name": "go"})
	gDB, _ := reg.Insert("Group", Fields{"name": "dbs"})
	_, _ = reg.Insert("Membership", Fields{"user_id": alice.ID(), "group_id": gGo.ID()})
	_, _ = reg.Insert("Membership", Fields{"user_id": alice.ID(), "group_id": gDB.ID()})

	groups, err := reg.Objects("Group").
		Via("Membership", "user_id", "group_id", "id").
		Filter("user_id", alice.ID()).
		OrderBy("name").
		All()
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 || groups[0].Str("name") != "dbs" || groups[1].Str("name") != "go" {
		t.Fatalf("groups = %+v", groups)
	}
}

func TestUnknownModelErrors(t *testing.T) {
	reg := newTestRegistry(t)
	if _, err := reg.Objects("Nope").All(); err == nil {
		t.Fatal("unknown model succeeded")
	}
	if _, err := reg.Insert("Nope", Fields{}); err == nil {
		t.Fatal("insert into unknown model succeeded")
	}
}

// fakeInterceptor serves canned rows for Profile row queries.
type fakeInterceptor struct {
	rows     []sqldb.Row
	count    int64
	rowCalls int
	cntCalls int
}

func (f *fakeInterceptor) InterceptRows(d *QueryDescriptor) ([]sqldb.Row, bool, error) {
	f.rowCalls++
	if d.Model.Name == "Profile" {
		return f.rows, true, nil
	}
	return nil, false, nil
}

func (f *fakeInterceptor) InterceptCount(d *QueryDescriptor) (int64, bool, error) {
	f.cntCalls++
	if d.Model.Name == "Profile" {
		return f.count, true, nil
	}
	return 0, false, nil
}

func TestInterceptorServesRows(t *testing.T) {
	reg := newTestRegistry(t)
	_, _ = reg.Insert("Profile", Fields{"user_id": 42, "bio": "db"})
	fi := &fakeInterceptor{
		rows:  []sqldb.Row{{sqldb.I64(1), sqldb.I64(42), sqldb.Str("cached"), sqldb.NullOf(sqldb.TypeTime)}},
		count: 77,
	}
	reg.SetInterceptor(fi)

	o, err := reg.Objects("Profile").Filter("user_id", 42).Get()
	if err != nil {
		t.Fatal(err)
	}
	if o.Str("bio") != "cached" {
		t.Fatalf("bio = %q, want interceptor row", o.Str("bio"))
	}
	n, err := reg.Objects("Profile").Filter("user_id", 42).Count()
	if err != nil || n != 77 {
		t.Fatalf("count = %d err=%v", n, err)
	}

	// Unhandled model falls through to the database.
	if _, err := reg.Insert("User", Fields{"username": "x"}); err != nil {
		t.Fatal(err)
	}
	users, err := reg.Objects("User").Filter("username", "x").All()
	if err != nil || len(users) != 1 {
		t.Fatalf("fallthrough failed: %d, %v", len(users), err)
	}
}

func TestNoCacheBypassesInterceptor(t *testing.T) {
	reg := newTestRegistry(t)
	_, _ = reg.Insert("Profile", Fields{"user_id": 42, "bio": "db"})
	fi := &fakeInterceptor{rows: []sqldb.Row{{sqldb.I64(1), sqldb.I64(42), sqldb.Str("cached"), sqldb.NullOf(sqldb.TypeTime)}}}
	reg.SetInterceptor(fi)
	o, err := reg.Objects("Profile").Filter("user_id", 42).NoCache().Get()
	if err != nil {
		t.Fatal(err)
	}
	if o.Str("bio") != "db" {
		t.Fatalf("bio = %q, want database row", o.Str("bio"))
	}
}

func TestRowObjectRoundTrip(t *testing.T) {
	reg := newTestRegistry(t)
	m, _ := reg.Model("Profile")
	row := sqldb.Row{sqldb.I64(5), sqldb.I64(42), sqldb.Str("bio"), sqldb.Time(time.Unix(9, 0))}
	o := reg.RowToObject(m, row)
	back := reg.ObjectToRow(m, o)
	if len(back) != len(row) {
		t.Fatalf("len = %d", len(back))
	}
	for i := range row {
		if sqldb.Compare(row[i], back[i]) != 0 {
			t.Fatalf("col %d differs", i)
		}
	}
}

// TestObjectIsARowView: an Object reads its row through the model's field
// table; unknown fields and the zero Object read as absent.
func TestObjectIsARowView(t *testing.T) {
	reg := newTestRegistry(t)
	m, _ := reg.Model("Profile")
	row := sqldb.Row{sqldb.I64(5), sqldb.I64(42), sqldb.Str("bio"), sqldb.Time(time.Unix(9, 0))}
	o := reg.RowToObject(m, row)
	if o.IsZero() || o.ID() != 5 || o.Int("user_id") != 42 || o.Str("bio") != "bio" || !o.Time("joined").Equal(time.Unix(9, 0)) {
		t.Fatalf("view reads %v %v %q %v", o.ID(), o.Int("user_id"), o.Str("bio"), o.Time("joined"))
	}
	if v, ok := o.Get("bio"); !ok || v.S != "bio" {
		t.Errorf("Get(bio) = %v, %v", v, ok)
	}
	if _, ok := o.Get("nope"); ok {
		t.Error("Get of an unknown field reported ok")
	}
	var zero Object
	if !zero.IsZero() || zero.ID() != 0 || zero.Str("bio") != "" {
		t.Error("zero Object is not empty")
	}
	if _, ok := zero.Get("id"); ok {
		t.Error("zero Object has an id")
	}
	// A short row (fewer columns than the model) reads the rest as absent.
	short := reg.RowToObject(m, row[:2])
	if _, ok := short.Get("bio"); ok || short.Int("user_id") != 42 {
		t.Error("short row misread")
	}
	// ObjectToRow hands back a copy, not the row behind the view.
	back := reg.ObjectToRow(m, o)
	back[2] = sqldb.Str("edited")
	if o.Str("bio") != "bio" {
		t.Error("editing ObjectToRow's result changed the Object")
	}
}

// TestFieldNamesIsACopy: callers may edit what FieldNames returns.
func TestFieldNamesIsACopy(t *testing.T) {
	reg := newTestRegistry(t)
	m, _ := reg.Model("Profile")
	names := m.FieldNames()
	names[0] = "oops"
	if got := m.FieldNames(); got[0] != "id" || len(got) != 4 {
		t.Fatalf("FieldNames = %v after a caller edited its copy", got)
	}
	if i, ok := m.FieldIndex("bio"); !ok || i != 2 {
		t.Errorf("FieldIndex(bio) = %d, %v", i, ok)
	}
}

// TestHydrationAllocs is the ceiling on turning a 10-row hit into Objects:
// one allocation, the []Object — the Objects view the rows the interceptor
// returned. Building a one- or two-term query costs nothing beyond the
// QuerySet itself.
func TestHydrationAllocs(t *testing.T) {
	reg := newTestRegistry(t)
	rows := make([]sqldb.Row, 10)
	for i := range rows {
		rows[i] = sqldb.Row{sqldb.I64(int64(i)), sqldb.I64(42), sqldb.Str("cached"), sqldb.NullOf(sqldb.TypeTime)}
	}
	reg.SetInterceptor(&fakeInterceptor{rows: rows})
	q := reg.Objects("Profile").Filter("user_id", 42)
	d := q.descriptor(KindRows)
	if n := testing.AllocsPerRun(100, func() {
		rows, err := q.rows(d)
		objs := q.objects(make([]Object, len(rows)), rows)
		if err != nil || len(objs) != 10 {
			t.Fatalf("%d objects, %v", len(objs), err)
		}
	}); n > 1 {
		t.Errorf("hydrating a 10-row hit: %.0f allocs, want <= 1", n)
	}
	uid := int64(4242)
	if n := testing.AllocsPerRun(100, func() {
		reg.Objects("Profile").Filter("user_id", uid).Filter("bio", "x")
	}); n > 1 {
		t.Errorf("building a two-filter QuerySet: %.0f allocs, want <= 1 (the QuerySet)", n)
	}
}

func TestEqFilterValues(t *testing.T) {
	d := &QueryDescriptor{Filters: []Filter{
		{Field: "user_id", Op: "=", Value: sqldb.I64(7)},
	}}
	vals, ok := d.EqFilterValues([]string{"user_id"})
	if !ok || vals[0].I != 7 {
		t.Fatalf("vals = %+v ok=%v", vals, ok)
	}
	if _, ok := d.EqFilterValues([]string{"other"}); ok {
		t.Fatal("matched wrong field")
	}
	d2 := &QueryDescriptor{Filters: []Filter{
		{Field: "user_id", Op: ">", Value: sqldb.I64(7)},
	}}
	if _, ok := d2.EqFilterValues([]string{"user_id"}); ok {
		t.Fatal("matched non-equality op")
	}
}
