package bench

import (
	"strings"
	"sync"
	"sync/atomic"

	"cachegenie/internal/orm"
	"cachegenie/internal/sqldb"
)

// conn is the orm.Conn the registry is built over. It sees every ORM
// statement and every cache-miss load (misses go through reg.Conn()), so it
// is where db_stmts_per_page is counted. The counting shim stays installed
// on end-to-end runs (two atomic adds per statement); spans, SQL text and
// acknowledged inserts are recorded only when asked for.
type conn struct {
	// target is the *sqldb.DB, or a *sqldb.Txn while seeding batches
	// inserts into one commit.
	target orm.Conn
	tr     *tracer

	queries atomic.Int64
	execs   atomic.Int64

	mu sync.Mutex
	// sqlFreq counts statement texts while tracing (the parse probe's
	// input).
	sqlFreq map[string]int64
	// acked holds table -> ids of every INSERT acknowledged outside
	// seeding, kept only when recordAcks is set (the durable workload's
	// crash audit).
	recordAcks bool
	acked      map[string][]int64
}

var _ orm.Conn = (*conn)(nil)

func (c *conn) noteSQL(sql string) {
	c.mu.Lock()
	if c.sqlFreq == nil {
		c.sqlFreq = make(map[string]int64)
	}
	c.sqlFreq[sql]++
	c.mu.Unlock()
}

func (c *conn) Query(sql string, args ...sqldb.Value) (*sqldb.ResultSet, error) {
	c.queries.Add(1)
	t0 := c.tr.begin()
	rs, err := c.target.Query(sql, args...)
	if t0 >= 0 {
		c.tr.end(t0, span{Layer: layerDB, Op: opQuery})
		c.noteSQL(sql)
	}
	return rs, err
}

func (c *conn) Exec(sql string, args ...sqldb.Value) (sqldb.Result, error) {
	c.execs.Add(1)
	t0 := c.tr.begin()
	res, err := c.target.Exec(sql, args...)
	if t0 >= 0 {
		c.tr.end(t0, span{Layer: layerDB, Op: opExec})
		c.noteSQL(sql)
	}
	if c.recordAcks && err == nil && len(res.Returning) == 1 {
		if table, ok := insertTable(sql); ok {
			c.mu.Lock()
			c.acked[table] = append(c.acked[table], res.Returning[0][0].I)
			c.mu.Unlock()
		}
	}
	return res, err
}

// insertTable extracts the table of an "INSERT INTO <table> ..." statement.
func insertTable(sql string) (string, bool) {
	rest, ok := strings.CutPrefix(sql, "INSERT INTO ")
	if !ok {
		return "", false
	}
	table, _, _ := strings.Cut(rest, " ")
	return table, true
}

// seedBatch is how many statements one seeding transaction carries: one
// commit (and, on a durable database, one fsync) per batch instead of per
// insert.
const seedBatch = 2000

// seedConn routes the registry through transactions of seedBatch statements
// while fn runs, then restores the autocommit connection.
func (c *conn) seedInBatches(db *sqldb.DB, fn func() error) error {
	sc := &seedConn{db: db, tx: db.Begin()}
	c.target = sc
	err := fn()
	c.target = db
	if cerr := sc.tx.Commit(); err == nil {
		err = cerr
	}
	return err
}

type seedConn struct {
	db *sqldb.DB
	tx *sqldb.Txn
	n  int
}

func (s *seedConn) Query(sql string, args ...sqldb.Value) (*sqldb.ResultSet, error) {
	return s.tx.Query(sql, args...)
}

func (s *seedConn) Exec(sql string, args ...sqldb.Value) (sqldb.Result, error) {
	if s.n++; s.n%seedBatch == 0 {
		if err := s.tx.Commit(); err != nil {
			return sqldb.Result{}, err
		}
		s.tx = s.db.Begin()
	}
	return s.tx.Exec(sql, args...)
}
