package sqldb

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cachegenie/internal/wal"
)

// walGoldenHex is the WAL segment walGoldenWorkload writes, one record per
// line: its bytes are the on-disk redo format, which a change to how the
// engine encodes or frames redo must not move.
const walGoldenHex = `
7300d83d00000000010100000000000000
581a2b7f63000000130100000000000000435245415445205441424c4520672028696420494e54205052494d415259204b4559204e4f54204e554c4c2c206b20494e54204e4f54204e554c4c2c207620544558542c206620464c4f41542c206220424f4f4c2c2074732054494d455354414d5029
b63c550400000000020100000000000000
900757b300000000010200000000000000
99fd9afd1d00000013020000000000000043524541544520494e444558206964785f675f6b204f4e206720286b29
553bda8a00000000020200000000000000
0e07fd7f00000000010300000000000000
bf9eb6c22400000013030000000000000043524541544520554e4951554520494e444558206964785f675f76204f4e206720287629
cb3b704600000000020300000000000000
170e387500000000010400000000000000
40f4c7bf420000001004000000000000000100670600000001000100000000000000010001000000000000000300030000006f6e650200000000000000f83f04000100000000000000050040420f0000000000
d232b54c00000000020400000000000000
890e92b900000000010500000000000000
47a8b1d3230000001005000000000000000100670600000001000200000000000000010002000000000000000301020104010501
4c321f8000000000020500000000000000
6a091d3700000000010600000000000000
197a26b02e0000001006000000000000000100670600000001000a000000000000000100010000000000000003000700000074656e006e756c020104010501
af35900e00000000020600000000000000
f409b7fb00000000010700000000000000
71006a09420000001107000000000000000100670600000001000100000000000000010001000000000000000300030000006f6e650200000000000000024004000000000000000000050040420f0000000000
eb2942973e0000001107000000000000000100670600000001000a000000000000000100010000000000000003000700000074656e006e756c02000000000000000240040000000000000000000501
31353ac200000000020700000000000000
581b972200000000010800000000000000
7edbe156230000001108000000000000000100670600000001000200000000000000010007000000000000000301020104010501
9d271a1b00000000020800000000000000
c61b3dee00000000010900000000000000
cae8b8ce0b0000001209000000000000000100670100000000000000
0327b0d700000000020900000000000000
bb1c18ac00000000010b00000000000000
737090142b000000100b000000000000000100670600000001000c0000000000000001000400000000000000030004000000666f7572020104010501
c7563b862b000000110b000000000000000100670600000001000c0000000000000001000400000000000000030004000000464f5552020104010501
3b53dbb02b000000100b000000000000000100670600000001000e0000000000000001000500000000000000030004000000676f6e65020104010501
97fc2c630b000000120b000000000000000100670e00000000000000
7e20959500000000020b00000000000000
3c15776a00000000010d00000000000000
576744ab40000000130d00000000000000435245415445205441424c4520682028696420494e54205052494d415259204b4559204e4f54204e554c4c2c206e616d652054455854204e4f54204e554c4c29
f929fa5300000000020d00000000000000
df12f8e400000000010e00000000000000
77f9c74c19000000100e0000000000000001006802000000010001000000000000000300020000006831
1a2e75dd00000000020e00000000000000
4112522800000000010f00000000000000
082cdd8c0b000000120f000000000000000100680100000000000000
842edf1100000000020f00000000000000
c631c98d00000000011000000000000000
7efc07ff1900000010100000000000000001006802000000010002000000000000000300020000006832
030d44b400000000021000000000000000
`

// walGoldenWorkload runs a fixed DDL and DML sequence covering every redo
// record type, NULLs of every column type, multi-row updates and deletes, a
// multi-statement transaction, a rolled-back one and a failed statement.
func walGoldenWorkload(t *testing.T, db *DB) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE g (k INT NOT NULL, v TEXT, f FLOAT, b BOOL, ts TIMESTAMP)")
	mustExec(t, db, "CREATE INDEX idx_g_k ON g (k)")
	mustExec(t, db, "CREATE UNIQUE INDEX idx_g_v ON g (v)")
	mustExec(t, db, "INSERT INTO g (k, v, f, b, ts) VALUES ($1, $2, $3, $4, $5)",
		I64(1), Str("one"), F64(1.5), Bool(true), Value{Type: TypeTime, I: 1_000_000})
	mustExec(t, db, "INSERT INTO g (k) VALUES (2)")
	mustExec(t, db, "INSERT INTO g (id, k, v) VALUES (10, 1, 'ten\x00nul')")
	mustExec(t, db, "UPDATE g SET f = 2.25, b = false WHERE k = 1")
	mustExec(t, db, "UPDATE g SET k = k + 5 WHERE id = 2")
	mustExec(t, db, "DELETE FROM g WHERE id = 1")
	if _, err := db.Exec("INSERT INTO g (k, v) VALUES (3, 'ten\x00nul')"); err == nil {
		t.Fatal("duplicate unique value accepted")
	}

	tx := db.Begin()
	for _, sql := range []string{
		"INSERT INTO g (k, v) VALUES (4, 'four')",
		"UPDATE g SET v = 'FOUR' WHERE k = 4",
		"INSERT INTO g (k, v) VALUES (6, 'FOUR')", // fails: a failed change leaves no record
		"INSERT INTO g (k, v) VALUES (5, 'gone')",
		"DELETE FROM g WHERE v = 'gone'",
	} {
		if _, err := tx.Exec(sql); (err != nil) != strings.Contains(sql, "'FOUR')") {
			t.Fatalf("Exec(%q): %v", sql, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin()
	if _, err := tx.Exec("DELETE FROM g"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE h (name TEXT NOT NULL)")
	mustExec(t, db, "INSERT INTO h (name) VALUES ('h1')")
	mustExec(t, db, "DELETE FROM h")
	mustExec(t, db, "INSERT INTO h (name) VALUES ('h2')")
}

// walGoldenTables renders every table's rows in primary-key order.
func walGoldenTables(t *testing.T, db *DB) string {
	t.Helper()
	var b strings.Builder
	for _, name := range db.Tables() {
		rs, err := db.Query("SELECT * FROM " + name + " ORDER BY id")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %v\n", name, rs.Rows)
	}
	return b.String()
}

// TestWALGolden pins the redo log byte for byte: walGoldenWorkload on a
// durable DB must write exactly walGoldenHex, and replaying that log must
// rebuild the tables the workload left.
func TestWALGolden(t *testing.T) {
	cfg := durableCfg(t)
	db := openDurable(t, cfg)
	walGoldenWorkload(t, db)
	want := walGoldenTables(t, db)
	const wantTables = "g [[2 7 NULL NULL NULL NULL] [10 1 ten\x00nul 2.25 false NULL] [12 4 FOUR NULL NULL NULL]]\n" +
		"h [[2 h2]]\n"
	if want != wantTables {
		t.Fatalf("the workload left\n%q\nwant\n%q", want, wantTables)
	}
	db.Crash()

	segs, err := wal.ListSegments(filepath.Join(cfg.DataDir, walSubdir))
	if err != nil || len(segs) != 1 {
		t.Fatalf("wal segments: %v, %v", segs, err)
	}
	data, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	got.WriteByte('\n')
	for off := 0; off < len(data); {
		_, n, err := wal.DecodeRecord(data[off:])
		if err != nil {
			t.Fatalf("record at %d: %v", off, err)
		}
		got.WriteString(hex.EncodeToString(data[off : off+n]))
		got.WriteByte('\n')
		off += n
	}
	if got.String() != walGoldenHex {
		t.Errorf("the redo log changed:\n got %s\nwant %s", got.String(), walGoldenHex)
	}

	db2 := openDurable(t, cfg)
	defer db2.Close()
	if got := walGoldenTables(t, db2); got != want {
		t.Errorf("replay rebuilt\n%q\nwant\n%q", got, want)
	}
}
