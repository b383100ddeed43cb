package sqlparse

import (
	"strconv"
	"strings"
)

// Parse parses a single SQL statement (an optional trailing semicolon is
// allowed).
//
// The returned AST is immutable: nothing may modify it after Parse returns.
// Its values come from the statement's $n arguments at execution time, never
// from edits to the tree, so sqldb parses each distinct SQL text once and
// shares the AST between every execution of it, concurrent ones included.
// Code that wants a variant of a statement builds a new one (as Template does).
func Parse(input string) (Statement, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind == TokSemi {
		p.next()
	}
	if p.peek().Kind != TokEOF {
		return nil, errf(p.peek().Pos, "trailing input after statement: %q", p.peek().Text)
	}
	return st, nil
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) peek() Token { return p.toks[p.pos] }

func (p *parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

// acceptKw consumes the next token if it is the given keyword.
func (p *parser) acceptKw(kw string) bool {
	if t := p.peek(); t.Kind == TokKeyword && t.Text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return errf(p.peek().Pos, "expected %s, got %q", kw, p.peek().Text)
	}
	return nil
}

func (p *parser) expect(k TokenKind) (Token, error) {
	if t := p.peek(); t.Kind == k {
		return p.next(), nil
	}
	return Token{}, errf(p.peek().Pos, "expected %s, got %q", k, p.peek().Text)
}

// ident accepts an identifier; some keywords double as identifiers in
// column positions (e.g. a column named "date" or "count"), so we accept a
// small allowlist of keywords too.
func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.Kind == TokIdent {
		p.next()
		return t.Text, nil
	}
	if t.Kind == TokKeyword {
		switch t.Text {
		case "DATE", "COUNT", "KEY", "ORDER", "DEFAULT":
			p.next()
			return strings.ToLower(t.Text), nil
		}
	}
	return "", errf(t.Pos, "expected identifier, got %q", t.Text)
}

func (p *parser) statement() (Statement, error) {
	t := p.peek()
	if t.Kind != TokKeyword {
		return nil, errf(t.Pos, "expected statement keyword, got %q", t.Text)
	}
	switch t.Text {
	case "SELECT":
		return p.selectStmt()
	case "INSERT":
		return p.insertStmt()
	case "UPDATE":
		return p.updateStmt()
	case "DELETE":
		return p.deleteStmt()
	case "CREATE":
		return p.createStmt()
	case "BEGIN":
		p.next()
		return &Begin{}, nil
	case "COMMIT":
		p.next()
		return &Commit{}, nil
	case "ROLLBACK":
		p.next()
		return &Rollback{}, nil
	}
	return nil, errf(t.Pos, "unsupported statement %q", t.Text)
}

// columnRef parses ident [. ident].
func (p *parser) columnRef() (ColumnRef, error) {
	first, err := p.ident()
	if err != nil {
		return ColumnRef{}, err
	}
	if p.peek().Kind == TokDot {
		p.next()
		second, err := p.ident()
		if err != nil {
			return ColumnRef{}, err
		}
		return ColumnRef{Table: first, Column: second}, nil
	}
	return ColumnRef{Column: first}, nil
}

func (p *parser) selectStmt() (Statement, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{Limit: -1}
	switch {
	case p.peek().Kind == TokStar:
		p.next()
		sel.Star = true
	case p.peek().Kind == TokKeyword && p.peek().Text == "COUNT":
		p.next()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokStar); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		sel.CountStar = true
	default:
		for {
			c, err := p.columnRef()
			if err != nil {
				return nil, err
			}
			sel.Columns = append(sel.Columns, c)
			if p.peek().Kind != TokComma {
				break
			}
			p.next()
		}
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	from, err := p.ident()
	if err != nil {
		return nil, err
	}
	sel.From = from
	for {
		if p.acceptKw("INNER") {
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
		} else if !p.acceptKw("JOIN") {
			break
		}
		jt, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("ON"); err != nil {
			return nil, err
		}
		left, err := p.columnRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokEq); err != nil {
			return nil, err
		}
		right, err := p.columnRef()
		if err != nil {
			return nil, err
		}
		sel.Joins = append(sel.Joins, JoinClause{Table: jt, Left: left, Right: right})
	}
	if p.acceptKw("WHERE") {
		w, err := p.predicate()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.columnRef()
			if err != nil {
				return nil, err
			}
			ob := OrderBy{Col: c}
			if p.acceptKw("DESC") {
				ob.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			sel.Order = append(sel.Order, ob)
			if p.peek().Kind != TokComma {
				break
			}
			p.next()
		}
	}
	if p.acceptKw("LIMIT") {
		n, err := p.intLiteral()
		if err != nil {
			return nil, err
		}
		sel.Limit = int(n)
	}
	if p.acceptKw("OFFSET") {
		n, err := p.intLiteral()
		if err != nil {
			return nil, err
		}
		sel.Offset = int(n)
	}
	return sel, nil
}

func (p *parser) intLiteral() (int64, error) {
	t, err := p.expect(TokNumber)
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(t.Text, 10, 64)
	if err != nil {
		return 0, errf(t.Pos, "bad integer %q", t.Text)
	}
	return n, nil
}

// predicate parses OR-separated conjunctions.
func (p *parser) predicate() (Predicate, error) {
	left, err := p.conjunction()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		right, err := p.conjunction()
		if err != nil {
			return nil, err
		}
		left = &Or{L: left, R: right}
	}
	return left, nil
}

func (p *parser) conjunction() (Predicate, error) {
	left, err := p.term()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		right, err := p.term()
		if err != nil {
			return nil, err
		}
		left = &And{L: left, R: right}
	}
	return left, nil
}

func (p *parser) term() (Predicate, error) {
	if p.peek().Kind == TokLParen {
		p.next()
		inner, err := p.predicate()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return inner, nil
	}
	col, err := p.columnRef()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	switch t.Kind {
	case TokEq, TokNeq, TokLt, TokLe, TokGt, TokGe:
		p.next()
		rhs, err := p.expr()
		if err != nil {
			return nil, err
		}
		op := map[TokenKind]CompareOp{
			TokEq: OpEq, TokNeq: OpNeq, TokLt: OpLt,
			TokLe: OpLe, TokGt: OpGt, TokGe: OpGe,
		}[t.Kind]
		return &Compare{Col: col, Op: op, Rhs: rhs}, nil
	case TokKeyword:
		switch t.Text {
		case "IN":
			p.next()
			if _, err := p.expect(TokLParen); err != nil {
				return nil, err
			}
			var list []Expr
			for {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				list = append(list, e)
				if p.peek().Kind != TokComma {
					break
				}
				p.next()
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			return &In{Col: col, List: list}, nil
		case "IS":
			p.next()
			not := p.acceptKw("NOT")
			if err := p.expectKw("NULL"); err != nil {
				return nil, err
			}
			return &IsNull{Col: col, Not: not}, nil
		}
	}
	return nil, errf(t.Pos, "expected comparison operator, got %q", t.Text)
}

// expr parses a literal, parameter, or column reference with optional +/-
// literal arithmetic.
func (p *parser) expr() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.next()
		lit, err := numberLiteral(t, false)
		if err != nil {
			return Expr{}, err
		}
		return Expr{Lit: lit}, nil
	case TokMinus:
		p.next()
		nt, err := p.expect(TokNumber)
		if err != nil {
			return Expr{}, err
		}
		lit, err := numberLiteral(nt, true)
		if err != nil {
			return Expr{}, err
		}
		return Expr{Lit: lit}, nil
	case TokString:
		p.next()
		return Expr{Lit: &Literal{Kind: "string", Str: t.Text}}, nil
	case TokParam:
		p.next()
		n, err := strconv.Atoi(t.Text)
		if err != nil || n < 1 {
			return Expr{}, errf(t.Pos, "bad parameter $%s", t.Text)
		}
		return Expr{Param: n}, nil
	case TokKeyword:
		switch t.Text {
		case "TRUE":
			p.next()
			return Expr{Lit: &Literal{Kind: "bool", Bool: true}}, nil
		case "FALSE":
			p.next()
			return Expr{Lit: &Literal{Kind: "bool", Bool: false}}, nil
		case "NULL":
			p.next()
			return Expr{Lit: &Literal{Kind: "null"}}, nil
		}
	}
	// Column reference, possibly with arithmetic.
	col, err := p.columnRef()
	if err != nil {
		return Expr{}, err
	}
	e := Expr{Col: &col}
	if k := p.peek().Kind; k == TokPlus || k == TokMinus {
		op := byte('+')
		if k == TokMinus {
			op = '-'
		}
		p.next()
		if pt := p.peek(); pt.Kind == TokParam {
			p.next()
			n, err := strconv.Atoi(pt.Text)
			if err != nil || n < 1 {
				return Expr{}, errf(pt.Pos, "bad parameter $%s", pt.Text)
			}
			e.Op = op
			e.OperandParam = n
			return e, nil
		}
		nt, err := p.expect(TokNumber)
		if err != nil {
			return Expr{}, err
		}
		lit, err := numberLiteral(nt, false)
		if err != nil {
			return Expr{}, err
		}
		e.Op = op
		e.Operand = lit
	}
	return e, nil
}

func numberLiteral(t Token, negate bool) (*Literal, error) {
	if strings.Contains(t.Text, ".") {
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, errf(t.Pos, "bad float %q", t.Text)
		}
		if negate {
			f = -f
		}
		return &Literal{Kind: "float", Float: f, Negate: false}, nil
	}
	n, err := strconv.ParseInt(t.Text, 10, 64)
	if err != nil {
		return nil, errf(t.Pos, "bad integer %q", t.Text)
	}
	if negate {
		n = -n
	}
	return &Literal{Kind: "int", Int: n}, nil
}

func (p *parser) insertStmt() (Statement, error) {
	if err := p.expectKw("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	for {
		c, err := p.ident()
		if err != nil {
			return nil, err
		}
		ins.Columns = append(ins.Columns, c)
		if p.peek().Kind != TokComma {
			break
		}
		p.next()
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	for {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		ins.Values = append(ins.Values, e)
		if p.peek().Kind != TokComma {
			break
		}
		p.next()
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if len(ins.Values) != len(ins.Columns) {
		return nil, errf(p.peek().Pos, "INSERT has %d columns but %d values",
			len(ins.Columns), len(ins.Values))
	}
	if p.acceptKw("RETURNING") {
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Returning = append(ins.Returning, c)
			if p.peek().Kind != TokComma {
				break
			}
			p.next()
		}
	}
	return ins, nil
}

func (p *parser) updateStmt() (Statement, error) {
	if err := p.expectKw("UPDATE"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	up := &Update{Table: table}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokEq); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		up.Set = append(up.Set, Assignment{Column: col, Value: e})
		if p.peek().Kind != TokComma {
			break
		}
		p.next()
	}
	if p.acceptKw("WHERE") {
		w, err := p.predicate()
		if err != nil {
			return nil, err
		}
		up.Where = w
	}
	return up, nil
}

func (p *parser) deleteStmt() (Statement, error) {
	if err := p.expectKw("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: table}
	if p.acceptKw("WHERE") {
		w, err := p.predicate()
		if err != nil {
			return nil, err
		}
		del.Where = w
	}
	return del, nil
}

func (p *parser) createStmt() (Statement, error) {
	if err := p.expectKw("CREATE"); err != nil {
		return nil, err
	}
	unique := p.acceptKw("UNIQUE")
	switch {
	case p.acceptKw("TABLE"):
		if unique {
			return nil, errf(p.peek().Pos, "UNIQUE TABLE is not a thing")
		}
		table, err := p.ident()
		if err != nil {
			return nil, err
		}
		ct := &CreateTable{Table: table}
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		for {
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			typTok := p.next()
			if typTok.Kind != TokKeyword {
				return nil, errf(typTok.Pos, "expected column type, got %q", typTok.Text)
			}
			typ := typTok.Text
			switch typ {
			case "INT", "BIGINT", "TEXT", "BOOL", "BOOLEAN", "FLOAT",
				"DOUBLE", "TIMESTAMP", "DATE", "VARCHAR":
			default:
				return nil, errf(typTok.Pos, "unsupported column type %q", typ)
			}
			if typ == "VARCHAR" && p.peek().Kind == TokLParen {
				// VARCHAR(n): accept and ignore the length.
				p.next()
				if _, err := p.expect(TokNumber); err != nil {
					return nil, err
				}
				if _, err := p.expect(TokRParen); err != nil {
					return nil, err
				}
			}
			cd := ColumnDef{Name: name, Type: typ}
			for {
				if p.acceptKw("PRIMARY") {
					if err := p.expectKw("KEY"); err != nil {
						return nil, err
					}
					cd.PrimaryKey = true
					continue
				}
				if p.acceptKw("NOT") {
					if err := p.expectKw("NULL"); err != nil {
						return nil, err
					}
					cd.NotNull = true
					continue
				}
				break
			}
			ct.Columns = append(ct.Columns, cd)
			if p.peek().Kind != TokComma {
				break
			}
			p.next()
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return ct, nil
	case p.acceptKw("INDEX"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("ON"); err != nil {
			return nil, err
		}
		table, err := p.ident()
		if err != nil {
			return nil, err
		}
		ci := &CreateIndex{Name: name, Table: table, Unique: unique}
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			ci.Columns = append(ci.Columns, c)
			if p.peek().Kind != TokComma {
				break
			}
			p.next()
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return ci, nil
	}
	return nil, errf(p.peek().Pos, "expected TABLE or INDEX after CREATE")
}
