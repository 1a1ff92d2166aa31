package strip

import (
	"math"
	"strings"

	"repro/internal/model"
)

// Aggregate evaluates an aggregate SELECT over the view objects and
// returns a single number:
//
//	SELECT COUNT(*)        FROM views [WHERE <expr>]
//	SELECT AVG(<field>)    FROM views [WHERE <expr>]
//	SELECT SUM(<field>)    FROM views [WHERE <expr>]
//	SELECT MIN(<field>)    FROM views [WHERE <expr>]
//	SELECT MAX(<field>)    FROM views [WHERE <expr>]
//
// <field> is any numeric query field (value, age, field.NAME). The
// WHERE grammar is shared with Query. MIN/MAX of an empty selection
// return NaN; AVG of an empty selection returns NaN; COUNT and SUM
// return 0.
//
//	frac, _ := db.Aggregate("SELECT AVG(age) FROM views WHERE stale")
func (db *DB) Aggregate(q string) (float64, error) {
	fn, field, where, err := parseAggregate(q)
	if err != nil {
		return 0, err
	}

	now := db.now()
	db.mu.RLock()
	at := now.UnixNano()
	snapshot := make([]Entry, db.nviews)
	for id := range snapshot {
		snapshot[id] = db.entryLocked(model.ObjectID(id), at)
	}
	db.mu.RUnlock()

	count := 0
	sum := 0.0
	minV := math.Inf(1)
	maxV := math.Inf(-1)
	fx := fieldExpr{name: field}
	for i := range snapshot {
		keep, err := where.evalBool(&snapshot[i], now)
		if err != nil {
			return 0, err
		}
		if !keep {
			continue
		}
		count++
		if fn == "count" {
			continue
		}
		v, err := fx.eval(&snapshot[i], now)
		if err != nil {
			return 0, err
		}
		if v.kind != 'n' {
			return 0, queryErrf("%s needs a numeric field, got %q", strings.ToUpper(fn), field)
		}
		sum += v.num
		if v.num < minV {
			minV = v.num
		}
		if v.num > maxV {
			maxV = v.num
		}
	}

	switch fn {
	case "count":
		return float64(count), nil
	case "sum":
		return sum, nil
	case "avg":
		if count == 0 {
			return math.NaN(), nil
		}
		return sum / float64(count), nil
	case "min":
		if count == 0 {
			return math.NaN(), nil
		}
		return minV, nil
	case "max":
		if count == 0 {
			return math.NaN(), nil
		}
		return maxV, nil
	}
	return 0, queryErrf("unknown aggregate %q", fn)
}

// parseAggregate parses "SELECT fn(field) FROM views [WHERE ...]".
func parseAggregate(q string) (fn, field string, where whereExpr, err error) {
	p := &parser{lex: lexer{src: []rune(q)}}
	if err = p.advance(); err != nil {
		return
	}
	if err = p.expectIdent("SELECT"); err != nil {
		return
	}
	if p.tok.kind != "ident" {
		err = queryErrf("expected aggregate function, got %q", p.tok.text)
		return
	}
	fn = strings.ToLower(p.tok.text)
	switch fn {
	case "count", "avg", "sum", "min", "max":
	default:
		err = queryErrf("unknown aggregate %q", fn)
		return
	}
	if err = p.advance(); err != nil {
		return
	}
	if p.tok.kind != "op" || p.tok.text != "(" {
		err = queryErrf("expected ( after %s", strings.ToUpper(fn))
		return
	}
	if err = p.advance(); err != nil {
		return
	}
	if p.tok.kind != "ident" {
		err = queryErrf("expected field inside %s(...)", strings.ToUpper(fn))
		return
	}
	field = strings.ToLower(p.tok.text)
	if fn == "count" && field != "*" {
		err = queryErrf("COUNT supports only *")
		return
	}
	if fn != "count" && field == "*" {
		err = queryErrf("%s needs a field, not *", strings.ToUpper(fn))
		return
	}
	if err = p.advance(); err != nil {
		return
	}
	if p.tok.kind != "op" || p.tok.text != ")" {
		err = queryErrf("missing ) in aggregate")
		return
	}
	if err = p.advance(); err != nil {
		return
	}
	if err = p.expectIdent("FROM"); err != nil {
		return
	}
	if err = p.expectIdent("views"); err != nil {
		return
	}
	if p.tok.kind == "ident" && strings.EqualFold(p.tok.text, "WHERE") {
		if err = p.advance(); err != nil {
			return
		}
		var e expr
		e, err = p.parseOr()
		if err != nil {
			return
		}
		where.inner = e
	}
	if p.tok.kind != "eof" {
		err = queryErrf("unexpected trailing input %q", p.tok.text)
	}
	return
}
