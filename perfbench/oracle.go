package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"slices"
	"sort"
	"time"

	"rwskit/internal/core"
)

// The oracle answers every query from the lists the benchmark generated
// and wrote, never from the server's own code: a site's set and role come
// from the generated core.Set values, and which sets a version holds is
// the benchmark's own record of the edits it made. Every set ever used in
// a run lives in one universe with disjoint members, so a version is just
// the subset of universe sets it holds.

// setEntry is one set of the universe.
type setEntry struct {
	set     *core.Set
	primary string
	members []string // primary first, as core.Set.Members orders them
	esc     []string // members escaped for a query string
	roles   []core.Role
	frag    []byte // the set's upstream-schema JSON
}

// siteRef names one member of one universe set.
type siteRef struct {
	set    int32
	member int32
}

type universe struct {
	sets []setEntry
}

// newUniverse indexes sets, which must be pairwise disjoint.
func newUniverse(sets []*core.Set) (*universe, error) {
	if _, err := core.NewList(sets); err != nil {
		return nil, fmt.Errorf("universe sets overlap: %w", err)
	}
	u := &universe{sets: make([]setEntry, len(sets))}
	for i, s := range sets {
		frag, err := core.MarshalSetJSON(s)
		if err != nil {
			return nil, fmt.Errorf("marshal set %s: %w", s.Primary, err)
		}
		e := setEntry{set: s, primary: s.Primary, frag: frag}
		for _, m := range s.Members() {
			e.members = append(e.members, m.Site)
			e.esc = append(e.esc, url.QueryEscape(m.Site))
			e.roles = append(e.roles, m.Role)
		}
		u.sets[i] = e
	}
	return u, nil
}

// version is one list revision the benchmark wrote.
type version struct {
	idx     int
	present []bool  // by universe set id
	ids     []int32 // present set ids
	multi   []int32 // present set ids with two or more members
	hash    string
	asOf    time.Time
	asOfArg string // an as_of= value that resolves to this version
	path    string // the file holding this version's list
}

// newVersion records the version holding ids and computes its content
// hash the way the server will.
func (u *universe) newVersion(idx int, ids []int32, asOf time.Time) (*version, error) {
	v := &version{idx: idx, present: make([]bool, len(u.sets)), ids: ids, asOf: asOf}
	sets := make([]*core.Set, len(ids))
	for i, id := range ids {
		v.present[id] = true
		sets[i] = u.sets[id].set
		if len(u.sets[id].members) >= 2 {
			v.multi = append(v.multi, id)
		}
	}
	list, err := core.NewList(sets)
	if err != nil {
		return nil, fmt.Errorf("version %d: %w", idx, err)
	}
	v.hash = list.Hash()
	v.asOfArg = asOf.Add(30 * time.Minute).UTC().Format(time.RFC3339)
	return v, nil
}

// write stores the version's list at path in the upstream schema, with
// its as-of time as the file's modification time (the server files a
// file revision under its mtime).
func (u *universe) write(v *version, path string) error {
	var buf bytes.Buffer
	buf.WriteString(`{"sets":[`)
	for i, id := range v.ids {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(u.sets[id].frag)
	}
	buf.WriteString("]}\n")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	if err := os.Chtimes(path, v.asOf, v.asOf); err != nil {
		return err
	}
	v.path = path
	return nil
}

// Query kinds.
const (
	kSameSet = iota
	kSet
	kPartition
	kBatch
	kAsOf
	kDiff
	numKinds
)

var kindNames = [numKinds]string{"sameset", "set", "partition", "batch", "asof", "diff"}

// batchPairs is the number of pairs in one batch request.
const batchPairs = 8

var policies = [...]string{"rws", "strict", "prompt", "legacy"}

// query is one request: what was asked, of which version, and when.
type query struct {
	kind   int
	n      int // pairs used in a and b
	a, b   [batchPairs]siteRef
	policy int
	pin    int // pinned version (asof, diff from); -1 when unpinned
	pin2   int // diff to
	byHash bool
	live   int // newest version seen live when the query was sent
	due    int64
}

// mix picks query kinds by weight.
type mix struct {
	cum   [numKinds]int
	total int
}

func newMix(weights [numKinds]int) mix {
	var m mix
	for k, w := range weights {
		m.total += w
		m.cum[k] = m.total
	}
	return m
}

func (m *mix) pick(rng *rand.Rand) int {
	x := rng.Intn(m.total)
	for k := range m.cum {
		if x < m.cum[k] {
			return k
		}
	}
	return numKinds - 1
}

// randomSite picks a random member of a random set of v.
func (u *universe) randomSite(rng *rand.Rand, v *version) siteRef {
	id := v.ids[rng.Intn(len(v.ids))]
	return siteRef{set: id, member: int32(rng.Intn(len(u.sets[id].members)))}
}

// pair picks half of its pairs from one set and half at random.
func (u *universe) pair(rng *rand.Rand, v *version) (siteRef, siteRef) {
	if rng.Intn(2) == 0 && len(v.multi) > 0 {
		id := v.multi[rng.Intn(len(v.multi))]
		n := len(u.sets[id].members)
		i := rng.Intn(n)
		j := (i + 1 + rng.Intn(n-1)) % n
		return siteRef{id, int32(i)}, siteRef{id, int32(j)}
	}
	return u.randomSite(rng, v), u.randomSite(rng, v)
}

// fill draws a query of the given kind about the sites of version draw,
// pinning versioned kinds to a version in [lo, hi].
func (u *universe) fill(q *query, rng *rand.Rand, kind int, vs []*version, draw, lo, hi int) {
	q.kind, q.n, q.pin, q.pin2 = kind, 1, -1, -1
	v := vs[draw]
	switch kind {
	case kSet:
		q.a[0] = u.randomSite(rng, v)
	case kSameSet, kPartition:
		q.a[0], q.b[0] = u.pair(rng, v)
		q.policy = rng.Intn(len(policies))
	case kBatch:
		q.n = batchPairs
		for i := 0; i < batchPairs; i++ {
			q.a[i], q.b[i] = u.pair(rng, v)
		}
	case kAsOf:
		q.pin = lo + rng.Intn(hi-lo+1)
		q.byHash = rng.Intn(2) == 0
		q.a[0], q.b[0] = u.pair(rng, vs[q.pin])
	case kDiff:
		q.pin = lo + rng.Intn(hi-lo+1)
		q.pin2 = lo + rng.Intn(hi-lo+1)
	}
}

// appendRequest appends q's HTTP request to dst.
func (u *universe) appendRequest(dst []byte, q *query, vs []*version) []byte {
	site := func(r siteRef) string { return u.sets[r.set].esc[r.member] }
	dst = append(dst, "GET "...)
	switch q.kind {
	case kSameSet, kAsOf:
		dst = append(dst, "/v1/sameset?a="...)
		dst = append(dst, site(q.a[0])...)
		dst = append(dst, "&b="...)
		dst = append(dst, site(q.b[0])...)
		if q.kind == kAsOf {
			if q.byHash {
				dst = append(dst, "&version="...)
				dst = append(dst, vs[q.pin].hash[:16]...)
			} else {
				dst = append(dst, "&as_of="...)
				dst = append(dst, vs[q.pin].asOfArg...)
			}
		}
	case kSet:
		dst = append(dst, "/v1/set?site="...)
		dst = append(dst, site(q.a[0])...)
	case kPartition:
		dst = append(dst, "/v1/partition?top="...)
		dst = append(dst, site(q.a[0])...)
		dst = append(dst, "&embedded="...)
		dst = append(dst, site(q.b[0])...)
		dst = append(dst, "&policy="...)
		dst = append(dst, policies[q.policy]...)
	case kBatch:
		dst = append(dst, "/v1/sameset?pairs="...)
		for i := 0; i < q.n; i++ {
			if i > 0 {
				dst = append(dst, "%3B"...)
			}
			dst = append(dst, site(q.a[i])...)
			dst = append(dst, ',')
			dst = append(dst, site(q.b[i])...)
		}
	case kDiff:
		dst = append(dst, "/v1/diff?from="...)
		dst = append(dst, vs[q.pin].hash[:16]...)
		dst = append(dst, "&to="...)
		dst = append(dst, vs[q.pin2].hash[:16]...)
	}
	return append(dst, " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"...)
}

// verdict is the oracle's judgement of one response.
type verdict struct {
	ok      bool
	version int // the version that answered, from its ETag; -1 if none
}

// checker judges responses against the versions written so far.
type checker struct {
	u        *universe
	versions []*version
	byHash   map[string]int
	diffs    map[[2]int]*expectedDiff
	// wrong, when >= 0, flips the expectation of the wrong-th checked
	// response: the self-test that a broken oracle cannot pass a run.
	wrong   int
	checked int
}

func newChecker(u *universe) *checker {
	return &checker{u: u, byHash: map[string]int{}, diffs: map[[2]int]*expectedDiff{}, wrong: -1}
}

func (c *checker) add(v *version) {
	c.versions = append(c.versions, v)
	c.byHash[v.hash] = v.idx
}

// check judges resp as the answer to q.
func (c *checker) check(q *query, resp *response) verdict {
	vd := verdict{version: -1}
	if resp.status != 200 {
		return vd
	}
	if q.kind != kDiff {
		v, ok := c.byHash[string(resp.etag)]
		if !ok {
			return vd
		}
		vd.version = v
		switch {
		case q.pin >= 0 && v != q.pin:
			return vd // a pinned query answered from another version
		case q.pin < 0 && v < q.live:
			return vd // an older version answered after a newer one went live
		}
	}
	ok := c.judge(q, vd.version, resp.body)
	if c.checked == c.wrong {
		ok = !ok
	}
	c.checked++
	vd.ok = ok
	return vd
}

func (c *checker) judge(q *query, vi int, body []byte) bool {
	switch q.kind {
	case kSameSet, kAsOf:
		return c.judgeSameSet(c.versions[vi], q.a[0], q.b[0], body)
	case kSet:
		return c.judgeSet(c.versions[vi], q.a[0], body)
	case kPartition:
		want, _ := c.sameSet(c.versions[vi], q.a[0], q.b[0])
		got, seen := false, false
		ok := scanObject(body, func(k, v []byte) bool {
			if string(k) == "same_set" {
				got, seen = string(v) == "true", true
			}
			return true
		})
		return ok && seen && got == want
	case kBatch:
		return c.judgeBatch(q, c.versions[vi], body)
	case kDiff:
		return c.judgeDiff(q, body)
	}
	return false
}

// sameSet is the expected answer for a pair in v: related, and the
// shared primary.
func (c *checker) sameSet(v *version, a, b siteRef) (bool, string) {
	if a.set == b.set && v.present[a.set] {
		return true, c.u.sets[a.set].primary
	}
	return false, ""
}

func (c *checker) judgeSameSet(v *version, a, b siteRef, body []byte) bool {
	want, wantPrimary := c.sameSet(v, a, b)
	got, seen := false, false
	var primary []byte
	ok := scanObject(body, func(k, val []byte) bool {
		switch string(k) {
		case "same_set":
			got, seen = string(val) == "true", true
		case "primary":
			primary = unquote(val)
		}
		return true
	})
	return ok && seen && got == want && string(primary) == wantPrimary
}

func (c *checker) judgeSet(v *version, s siteRef, body []byte) bool {
	e := &c.u.sets[s.set]
	want := v.present[s.set]
	found, seen := false, false
	var role, primary []byte
	ok := scanObject(body, func(k, val []byte) bool {
		switch string(k) {
		case "found":
			found, seen = string(val) == "true", true
		case "role":
			role = unquote(val)
		case "primary":
			primary = unquote(val)
		}
		return true
	})
	if !ok || !seen || found != want {
		return false
	}
	if !want {
		return len(primary) == 0
	}
	return string(primary) == e.primary && string(role) == e.roles[s.member].String()
}

func (c *checker) judgeBatch(q *query, v *version, body []byte) bool {
	pairs, results := -1, -1
	good := true
	ok := scanObject(body, func(k, val []byte) bool {
		switch string(k) {
		case "pairs":
			pairs, _ = atoi(val)
		case "results":
			results = 0
			good = scanArray(val, func(elem []byte) bool {
				if results >= q.n || !c.judgeSameSet(v, q.a[results], q.b[results], elem) {
					return false
				}
				results++
				return true
			})
		}
		return true
	})
	return ok && good && pairs == q.n && results == q.n
}

// expectedDiff is the set-level and member-level change between two
// versions, sorted as the diff endpoint reports it.
type expectedDiff struct {
	addedSets, removedSets, addedMembers, removedMembers []string
}

func (c *checker) expectDiff(from, to int) *expectedDiff {
	key := [2]int{from, to}
	if d, ok := c.diffs[key]; ok {
		return d
	}
	d := &expectedDiff{}
	f, t := c.versions[from], c.versions[to]
	for id := range c.u.sets {
		switch {
		case t.present[id] && !f.present[id]:
			d.addedSets = append(d.addedSets, c.u.sets[id].primary)
		case f.present[id] && !t.present[id]:
			d.removedSets = append(d.removedSets, c.u.sets[id].primary)
		}
	}
	// Universe sets never change membership, so sets held by both
	// versions contribute no member-level changes.
	sort.Strings(d.addedSets)
	sort.Strings(d.removedSets)
	c.diffs[key] = d
	return d
}

func (c *checker) judgeDiff(q *query, body []byte) bool {
	var got struct {
		AddedSets      []string `json:"added_sets"`
		RemovedSets    []string `json:"removed_sets"`
		AddedMembers   []string `json:"added_members"`
		RemovedMembers []string `json:"removed_members"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return false
	}
	want := c.expectDiff(q.pin, q.pin2)
	return slices.Equal(got.AddedSets, want.addedSets) &&
		slices.Equal(got.RemovedSets, want.removedSets) &&
		slices.Equal(got.AddedMembers, want.addedMembers) &&
		slices.Equal(got.RemovedMembers, want.removedMembers)
}

// unquote strips a JSON string value's quotes; site names and roles
// carry no escapes.
func unquote(v []byte) []byte {
	if len(v) >= 2 && v[0] == '"' && v[len(v)-1] == '"' {
		return v[1 : len(v)-1]
	}
	return nil
}

// scanObject calls fn with each member of the JSON object b, reporting
// false if b is not a well-formed object or fn stops the scan.
func scanObject(b []byte, fn func(key, val []byte) bool) bool {
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return true
	}
	for {
		ke, ok := skipString(b, i)
		if !ok {
			return false
		}
		key := b[i+1 : ke-1]
		i = skipSpace(b, ke)
		if i >= len(b) || b[i] != ':' {
			return false
		}
		i = skipSpace(b, i+1)
		ve, ok := skipValue(b, i)
		if !ok || !fn(key, b[i:ve]) {
			return false
		}
		i = skipSpace(b, ve)
		if i >= len(b) {
			return false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return true
		default:
			return false
		}
	}
}

// scanArray calls fn with each element of the JSON array b.
func scanArray(b []byte, fn func(elem []byte) bool) bool {
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '[' {
		return false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return true
	}
	for {
		ve, ok := skipValue(b, i)
		if !ok || !fn(b[i:ve]) {
			return false
		}
		i = skipSpace(b, ve)
		if i >= len(b) {
			return false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case ']':
			return true
		default:
			return false
		}
	}
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

// skipString returns the index just past the JSON string starting at i.
func skipString(b []byte, i int) (int, bool) {
	if i >= len(b) || b[i] != '"' {
		return i, false
	}
	for i++; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			return i + 1, true
		}
	}
	return i, false
}

// skipValue returns the index just past the JSON value starting at i.
func skipValue(b []byte, i int) (int, bool) {
	if i >= len(b) {
		return i, false
	}
	switch b[i] {
	case '"':
		return skipString(b, i)
	case '{', '[':
		depth := 0
		for ; i < len(b); i++ {
			switch b[i] {
			case '"':
				end, ok := skipString(b, i)
				if !ok {
					return end, false
				}
				i = end - 1
			case '{', '[':
				depth++
			case '}', ']':
				depth--
				if depth == 0 {
					return i + 1, true
				}
			}
		}
		return i, false
	default:
		start := i
		for i < len(b) && b[i] != ',' && b[i] != '}' && b[i] != ']' && b[i] != ' ' && b[i] != '\n' {
			i++
		}
		return i, i > start
	}
}

// selfTestOracle proves the oracle can fail: it must accept a right
// answer, reject a wrong one, and reject the right one once told to flip
// its expectation.
func selfTestOracle() error {
	a := &core.Set{Primary: "a.example", Associated: []string{"b.example"}, RationaleBySite: map[string]string{"b.example": "x"}}
	c := &core.Set{Primary: "c.example"}
	u, err := newUniverse([]*core.Set{a, c})
	if err != nil {
		return err
	}
	v, err := u.newVersion(0, []int32{0, 1}, asOfEpoch)
	if err != nil {
		return err
	}
	chk := newChecker(u)
	chk.add(v)
	q := query{kind: kSameSet, n: 1, pin: -1, pin2: -1}
	q.a[0], q.b[0] = siteRef{0, 0}, siteRef{0, 1}
	right := response{status: 200, etag: []byte(v.hash), body: []byte(`{"a":"a.example","b":"b.example","same_set":true,"primary":"a.example"}`)}
	wrong := right
	wrong.body = []byte(`{"a":"a.example","b":"b.example","same_set":false}`)
	if !chk.check(&q, &right).ok || chk.check(&q, &wrong).ok {
		return errors.New("oracle self-test: the oracle does not tell a right answer from a wrong one")
	}
	chk.wrong = chk.checked
	if chk.check(&q, &right).ok {
		return errors.New("oracle self-test: a deliberately wrong expectation passed")
	}
	return nil
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
