package strip

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode"

	"repro/internal/model"
)

// Query evaluates a small read-only SELECT over the view objects —
// the monitoring corner of the SQL interface the STRIP system
// advertised. The grammar:
//
//	SELECT * FROM views
//	  [WHERE <expr>]
//	  [ORDER BY <field> [ASC|DESC]]
//	  [LIMIT <n>]
//
// Fields usable in <expr> and ORDER BY:
//
//	object      view name (string)
//	value       current value (number)
//	age         seconds since the value's generation time (number)
//	stale       staleness under the configured criterion (boolean)
//	field.NAME  named attribute of a record view (number)
//
// Operators: = != < <= > >=, AND, OR, NOT, parentheses, and LIKE with
// % wildcards at either end of a string literal. String literals use
// single quotes.
//
//	SELECT * FROM views WHERE stale AND value > 100 ORDER BY age DESC LIMIT 5
//	SELECT * FROM views WHERE object LIKE 'FX%' AND field.bid >= 99
//
// The result is a consistent snapshot taken at call time.
func (db *DB) Query(q string) ([]Entry, error) {
	stmt, err := parseQuery(q)
	if err != nil {
		return nil, err
	}

	now := db.now()
	db.mu.RLock()
	at := now.UnixNano()
	snapshot := make([]Entry, db.nviews)
	for id := range snapshot {
		snapshot[id] = db.entryLocked(model.ObjectID(id), at)
	}
	db.mu.RUnlock()

	var out []Entry
	for _, e := range snapshot {
		keep, err := stmt.where.evalBool(&e, now)
		if err != nil {
			return nil, err
		}
		if keep {
			out = append(out, e)
		}
	}
	if stmt.orderBy != "" {
		if err := sortEntries(out, stmt.orderBy, stmt.desc, now); err != nil {
			return nil, err
		}
	}
	if stmt.limit >= 0 && len(out) > stmt.limit {
		out = out[:stmt.limit]
	}
	return out, nil
}

// ErrQuery wraps all query parse and evaluation failures.
var ErrQuery = errors.New("strip: query error")

func queryErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrQuery, fmt.Sprintf(format, args...))
}

// --- statement ---

type queryStmt struct {
	where   whereExpr
	orderBy string
	desc    bool
	limit   int
}

// --- expression AST ---

// value is the dynamic result of evaluating a sub-expression.
type value struct {
	kind byte // 'n' number, 's' string, 'b' bool
	num  float64
	str  string
	b    bool
}

type expr interface {
	eval(e *Entry, now time.Time) (value, error)
}

type binaryExpr struct {
	op          string
	left, right expr
}

type notExpr struct{ inner expr }

type literalExpr struct{ v value }

type fieldExpr struct{ name string }

func (x *literalExpr) eval(*Entry, time.Time) (value, error) { return x.v, nil }

func (x *notExpr) eval(e *Entry, now time.Time) (value, error) {
	v, err := x.inner.eval(e, now)
	if err != nil {
		return value{}, err
	}
	if v.kind != 'b' {
		return value{}, queryErrf("NOT applied to non-boolean")
	}
	return value{kind: 'b', b: !v.b}, nil
}

func (x *fieldExpr) eval(e *Entry, now time.Time) (value, error) {
	switch {
	case x.name == "object":
		return value{kind: 's', str: e.Object}, nil
	case x.name == "value":
		return value{kind: 'n', num: e.Value}, nil
	case x.name == "stale":
		return value{kind: 'b', b: e.Stale}, nil
	case x.name == "age":
		return value{kind: 'n', num: now.Sub(e.Generated).Seconds()}, nil
	case strings.HasPrefix(x.name, "field."):
		attr := strings.TrimPrefix(x.name, "field.")
		v, ok := e.Fields[attr]
		if !ok {
			return value{kind: 'n', num: 0}, nil
		}
		return value{kind: 'n', num: v}, nil
	default:
		return value{}, queryErrf("unknown field %q", x.name)
	}
}

func (x *binaryExpr) eval(e *Entry, now time.Time) (value, error) {
	l, err := x.left.eval(e, now)
	if err != nil {
		return value{}, err
	}
	// Short-circuit the logical operators.
	if x.op == "AND" || x.op == "OR" {
		if l.kind != 'b' {
			return value{}, queryErrf("%s applied to non-boolean", x.op)
		}
		if x.op == "AND" && !l.b {
			return value{kind: 'b', b: false}, nil
		}
		if x.op == "OR" && l.b {
			return value{kind: 'b', b: true}, nil
		}
		r, err := x.right.eval(e, now)
		if err != nil {
			return value{}, err
		}
		if r.kind != 'b' {
			return value{}, queryErrf("%s applied to non-boolean", x.op)
		}
		return value{kind: 'b', b: r.b}, nil
	}

	r, err := x.right.eval(e, now)
	if err != nil {
		return value{}, err
	}
	if x.op == "LIKE" {
		if l.kind != 's' || r.kind != 's' {
			return value{}, queryErrf("LIKE needs string operands")
		}
		return value{kind: 'b', b: likeMatch(l.str, r.str)}, nil
	}
	if l.kind != r.kind {
		return value{}, queryErrf("type mismatch for %s", x.op)
	}
	var cmp int
	switch l.kind {
	case 'n':
		switch {
		case l.num < r.num:
			cmp = -1
		case l.num > r.num:
			cmp = 1
		}
	case 's':
		cmp = strings.Compare(l.str, r.str)
	case 'b':
		if x.op != "=" && x.op != "!=" {
			return value{}, queryErrf("booleans support only = and !=")
		}
		eq := l.b == r.b
		if x.op == "=" {
			return value{kind: 'b', b: eq}, nil
		}
		return value{kind: 'b', b: !eq}, nil
	}
	var out bool
	switch x.op {
	case "=":
		out = cmp == 0
	case "!=":
		out = cmp != 0
	case "<":
		out = cmp < 0
	case "<=":
		out = cmp <= 0
	case ">":
		out = cmp > 0
	case ">=":
		out = cmp >= 0
	default:
		return value{}, queryErrf("unknown operator %q", x.op)
	}
	return value{kind: 'b', b: out}, nil
}

// evalBool evaluates an optional WHERE expression to a boolean; a nil
// expression keeps everything.
type whereExpr struct{ inner expr }

func (w whereExpr) evalBool(e *Entry, now time.Time) (bool, error) {
	if w.inner == nil {
		return true, nil
	}
	v, err := w.inner.eval(e, now)
	if err != nil {
		return false, err
	}
	if v.kind != 'b' {
		return false, queryErrf("WHERE is not boolean")
	}
	return v.b, nil
}

// likeMatch implements % wildcards at either end of the pattern.
func likeMatch(s, pattern string) bool {
	prefix := strings.HasPrefix(pattern, "%")
	suffix := strings.HasSuffix(pattern, "%")
	core := strings.TrimSuffix(strings.TrimPrefix(pattern, "%"), "%")
	switch {
	case prefix && suffix:
		return strings.Contains(s, core)
	case prefix:
		return strings.HasSuffix(s, core)
	case suffix:
		return strings.HasPrefix(s, core)
	default:
		return s == pattern
	}
}

func sortEntries(entries []Entry, field string, desc bool, now time.Time) error {
	key := func(e *Entry) (float64, string, error) {
		fx := fieldExpr{name: field}
		v, err := fx.eval(e, now)
		if err != nil {
			return 0, "", err
		}
		switch v.kind {
		case 'n':
			return v.num, "", nil
		case 's':
			return 0, v.str, nil
		case 'b':
			if v.b {
				return 1, "", nil
			}
			return 0, "", nil
		}
		return 0, "", queryErrf("cannot order by %q", field)
	}
	// Validate the key once before sorting.
	if len(entries) > 0 {
		if _, _, err := key(&entries[0]); err != nil {
			return err
		}
	}
	lessFn := func(i, j int) bool {
		ni, si, _ := key(&entries[i])
		nj, sj, _ := key(&entries[j])
		if si != "" || sj != "" {
			return si < sj
		}
		return ni < nj
	}
	sort.SliceStable(entries, func(i, j int) bool {
		if desc {
			return lessFn(j, i)
		}
		return lessFn(i, j)
	})
	return nil
}

// --- lexer / parser ---

type token struct {
	kind string // "ident", "num", "str", "op", "eof"
	text string
}

type lexer struct {
	src []rune
	pos int
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && unicode.IsSpace(l.src[l.pos]) {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: "eof"}, nil
	}
	c := l.src[l.pos]
	switch {
	case unicode.IsLetter(c) || c == '_' || c == '*':
		start := l.pos
		for l.pos < len(l.src) && (unicode.IsLetter(l.src[l.pos]) ||
			unicode.IsDigit(l.src[l.pos]) || l.src[l.pos] == '_' ||
			l.src[l.pos] == '.' || l.src[l.pos] == '*') {
			l.pos++
		}
		return token{kind: "ident", text: string(l.src[start:l.pos])}, nil
	case unicode.IsDigit(c) || c == '-' || c == '+':
		start := l.pos
		l.pos++
		for l.pos < len(l.src) && (unicode.IsDigit(l.src[l.pos]) ||
			l.src[l.pos] == '.' || l.src[l.pos] == 'e' || l.src[l.pos] == 'E' ||
			l.src[l.pos] == '-' || l.src[l.pos] == '+') {
			// Allow exponent signs only right after e/E.
			if (l.src[l.pos] == '-' || l.src[l.pos] == '+') &&
				!(l.src[l.pos-1] == 'e' || l.src[l.pos-1] == 'E') {
				break
			}
			l.pos++
		}
		return token{kind: "num", text: string(l.src[start:l.pos])}, nil
	case c == '\'':
		l.pos++
		start := l.pos
		for l.pos < len(l.src) && l.src[l.pos] != '\'' {
			l.pos++
		}
		if l.pos >= len(l.src) {
			return token{}, queryErrf("unterminated string literal")
		}
		s := string(l.src[start:l.pos])
		l.pos++
		return token{kind: "str", text: s}, nil
	case c == '(' || c == ')' || c == ',':
		l.pos++
		return token{kind: "op", text: string(c)}, nil
	case c == '=' || c == '<' || c == '>' || c == '!':
		start := l.pos
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
		}
		op := string(l.src[start:l.pos])
		if op == "!" {
			return token{}, queryErrf("unexpected '!'")
		}
		return token{kind: "op", text: op}, nil
	default:
		return token{}, queryErrf("unexpected character %q", string(c))
	}
}

type parser struct {
	lex  lexer
	tok  token
	peek *token
}

func (p *parser) advance() error {
	if p.peek != nil {
		p.tok = *p.peek
		p.peek = nil
		return nil
	}
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) expectIdent(word string) error {
	if p.tok.kind != "ident" || !strings.EqualFold(p.tok.text, word) {
		return queryErrf("expected %s, got %q", word, p.tok.text)
	}
	return p.advance()
}

func parseQuery(q string) (*queryStmt, error) {
	p := &parser{lex: lexer{src: []rune(q)}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	for _, word := range []string{"SELECT", "*", "FROM", "views"} {
		if err := p.expectIdent(word); err != nil {
			return nil, err
		}
	}
	stmt := &queryStmt{limit: -1}
	if p.tok.kind == "ident" && strings.EqualFold(p.tok.text, "WHERE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		stmt.where.inner = e
	}
	if p.tok.kind == "ident" && strings.EqualFold(p.tok.text, "ORDER") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectIdent("BY"); err != nil {
			return nil, err
		}
		if p.tok.kind != "ident" {
			return nil, queryErrf("expected field after ORDER BY")
		}
		stmt.orderBy = strings.ToLower(p.tok.text)
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind == "ident" &&
			(strings.EqualFold(p.tok.text, "ASC") || strings.EqualFold(p.tok.text, "DESC")) {
			stmt.desc = strings.EqualFold(p.tok.text, "DESC")
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if p.tok.kind == "ident" && strings.EqualFold(p.tok.text, "LIMIT") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != "num" {
			return nil, queryErrf("expected number after LIMIT")
		}
		n, err := strconv.Atoi(p.tok.text)
		if err != nil || n < 0 {
			return nil, queryErrf("bad LIMIT %q", p.tok.text)
		}
		stmt.limit = n
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.kind != "eof" {
		return nil, queryErrf("unexpected trailing input %q", p.tok.text)
	}
	return stmt, nil
}

func (p *parser) parseOr() (expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == "ident" && strings.EqualFold(p.tok.text, "OR") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &binaryExpr{op: "OR", left: left, right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == "ident" && strings.EqualFold(p.tok.text, "AND") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &binaryExpr{op: "AND", left: left, right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (expr, error) {
	if p.tok.kind == "ident" && strings.EqualFold(p.tok.text, "NOT") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &notExpr{inner: inner}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (expr, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == "op" && isCompareOp(p.tok.text) {
		op := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return &binaryExpr{op: op, left: left, right: right}, nil
	}
	if p.tok.kind == "ident" && strings.EqualFold(p.tok.text, "LIKE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return &binaryExpr{op: "LIKE", left: left, right: right}, nil
	}
	return left, nil
}

func isCompareOp(op string) bool {
	switch op {
	case "=", "!=", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func (p *parser) parsePrimary() (expr, error) {
	switch p.tok.kind {
	case "num":
		n, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return nil, queryErrf("bad number %q", p.tok.text)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &literalExpr{v: value{kind: 'n', num: n}}, nil
	case "str":
		s := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &literalExpr{v: value{kind: 's', str: s}}, nil
	case "ident":
		word := p.tok.text
		if strings.EqualFold(word, "true") || strings.EqualFold(word, "false") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			return &literalExpr{v: value{kind: 'b', b: strings.EqualFold(word, "true")}}, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &fieldExpr{name: strings.ToLower(word)}, nil
	case "op":
		if p.tok.text == "(" {
			if err := p.advance(); err != nil {
				return nil, err
			}
			inner, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if p.tok.kind != "op" || p.tok.text != ")" {
				return nil, queryErrf("missing closing parenthesis")
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			return inner, nil
		}
	}
	return nil, queryErrf("unexpected token %q", p.tok.text)
}
