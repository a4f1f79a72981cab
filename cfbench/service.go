package main

// The service-mixed workload: a checkfenced server (daemon.NewServer,
// Parallelism 2) on loopback HTTP, driven in a closed loop by two
// clients sending a seeded mix of requests. Set-up sends every distinct
// request once, so the spec cache is warm, as in a long-running daemon.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"checkfence/internal/daemon"
	"checkfence/internal/harness"
	"checkfence/internal/job"
	"checkfence/internal/refimpl"
)

const (
	serviceRequests      = 400
	quickServiceRequests = 40
	serviceClients       = 2
	serviceTimeout       = 60 * time.Second
)

// The request classes and their shares of the mix. The rf share stays
// well under 40%, so the median lands inside the SAT classes rather
// than in the gap between rf requests and SAT requests.
var serviceClasses = []struct {
	name  string
	share float64
}{
	{"litmus", 0.25},  // inline litmus programs, routed to the rf engine
	{"single", 0.45},  // one study-set check on one model
	{"batch", 0.15},   // one study-set check on four models: a sweep group
	{"nofence", 0.15}, // FAIL checks that render a counterexample
}

// litmusProgram is an inline data type whose operations are single
// global accesses, so its tests are litmus shapes inside the
// reads-from fragment. The daemon resolves tests through the table of
// the program's kind, so it claims kind "set" and uses the set
// mnemonics a, c and r (plus d) for its four accesses.
var litmusProgram = job.Program{
	Name: "litmusdt", Kind: "set", InitFunc: "init_lit", Object: "x",
	Source: `
int x;
int y;

void init_lit(int *s) { x = 0; y = 0; }
void wx(int *s) { x = 1; }
void wy(int *s) { y = 1; }
int rx(int *s) { return x; }
int ry(int *s) { return y; }
`,
	Ops: []job.Op{
		{Mnemonic: "a", Func: "wx"},
		{Mnemonic: "r", Func: "wy"},
		{Mnemonic: "c", Func: "rx", HasRet: true},
		{Mnemonic: "d", Func: "ry", HasRet: true},
	},
}

// litmusAnswers is the known verdict of each litmus shape per model:
// true where every execution is serializable.
var litmusAnswers = []struct {
	shape, notation string
	pass            map[string]bool
}{
	{"sb", "( ad | rc )", map[string]bool{"sc": true, "tso": false, "pso": false, "relaxed": false}},
	{"mp", "( ar | dc )", map[string]bool{"sc": true, "tso": true, "pso": false, "relaxed": false}},
	{"lb", "( da | cr )", map[string]bool{"sc": true, "tso": true, "pso": true, "relaxed": false}},
	{"corr", "( a | cc )", map[string]bool{"sc": true, "tso": true, "pso": true, "relaxed": false}},
	{"iriw", "( a | r | cd | dc )", map[string]bool{"sc": true, "tso": true, "pso": true, "relaxed": false}},
}

// The study-set requests. Every fenced implementation passes on every
// model; every -nofence one fails on Relaxed.
var (
	singleChecks = []struct{ impl, test, model string }{
		{"msn", "T0", "relaxed"}, {"msn", "T0", "tso"}, {"msn", "T0", "pso"},
		{"harris", "Sac", "relaxed"}, {"harris", "Sac", "tso"}, {"lazylist", "Sac", "tso"},
		{"harris", "Sar", "sc"}, {"harris", "Sar", "tso"}, {"harris", "Sar", "relaxed"},
	}
	batchChecks   = []struct{ impl, test string }{{"ms2", "T0"}, {"msn", "T0"}, {"lazylist", "Sac"}}
	batchModels   = []string{"sc", "tso", "pso", "relaxed"}
	nofenceChecks = []struct{ impl, test string }{{"msn-nofence", "T0"}, {"lazylist-nofence", "Sac"}, {"ms2-nofence", "T0"}}
)

// svcItem is one distinct request with its known answer.
type svcItem struct {
	class, label string
	body         []byte
	pass         map[string]bool // expected verdict per model
	obs          int             // reference observation count of a PASS (0 = not checked)
}

type svcSample struct {
	class  string
	lat    time.Duration
	ok     bool
	wrong  bool          // an answer contradicted the known-answer table
	check  time.Duration // the longest job time the server reported
	status int
	errMsg string // body of a non-200 response
	lines  []daemon.ResultLine
}

type serviceWorkload struct {
	cfg    *config
	items  []*svcItem
	seq    []int // the seeded request sequence, indices into items
	srv    *daemon.Server
	http   *http.Server
	url    string
	client *http.Client
	tr     atomic.Pointer[tracer] // set during a traced pass
	nextID atomic.Int64
}

func newService(cfg *config) workload { return &serviceWorkload{cfg: cfg} }

func (w *serviceWorkload) setup() error {
	items, err := serviceItems()
	if err != nil {
		return err
	}
	w.items = items
	n := serviceRequests
	if w.cfg.quick {
		n = quickServiceRequests
	}
	w.seq = mix(w.cfg.seed, items, n)

	w.srv = daemon.NewServer(daemon.Config{Parallelism: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.http = &http.Server{Handler: http.HandlerFunc(w.serve)}
	go w.http.Serve(ln) // returns http.ErrServerClosed after close
	w.url = "http://" + ln.Addr().String()
	w.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients},
		Timeout:   2 * serviceTimeout,
	}
	// Warm the spec cache with every distinct request once.
	for i := range w.items {
		if s := w.send(i); s.status != http.StatusOK {
			return fmt.Errorf("warm-up %s: HTTP %d: %s", w.items[i].label, s.status, s.errMsg)
		}
	}
	return nil
}

func (w *serviceWorkload) close() {
	if w.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = w.srv.Shutdown(ctx) // drains in-flight batches; none remain
		// An idle client connection that never sent a request would hold
		// Shutdown for 5 s.
		w.client.CloseIdleConnections()
		_ = w.http.Shutdown(ctx) // the listener is ours; errors leave nothing to undo
	}
}

func (w *serviceWorkload) reset() error { return nil }

// serviceItems builds every distinct request with its known answer.
func serviceItems() ([]*svcItem, error) {
	var items []*svcItem
	add := func(class, label string, bj daemon.BatchJob, pass map[string]bool, obs int) error {
		body, err := json.Marshal(daemon.BatchRequest{Jobs: []daemon.BatchJob{bj}, Timeout: job.Duration(serviceTimeout)})
		if err != nil {
			return err
		}
		items = append(items, &svcItem{class: class, label: label, body: body, pass: pass, obs: obs})
		return nil
	}
	refCount := func(impl, test string) (int, error) {
		im, err := harness.Get(impl)
		if err != nil {
			return 0, err
		}
		t, err := harness.GetTest(im, test)
		if err != nil {
			return 0, err
		}
		set, err := refimpl.Enumerate(im, t)
		if err != nil {
			return 0, err
		}
		return set.Len(), nil
	}
	for _, l := range litmusAnswers {
		for _, m := range batchModels {
			bj := daemon.BatchJob{Check: job.Check{Program: litmusProgram, Test: l.notation, Model: m}}
			if err := add("litmus", l.shape+"/"+m, bj, map[string]bool{m: l.pass[m]}, 0); err != nil {
				return nil, err
			}
		}
	}
	for _, c := range singleChecks {
		n, err := refCount(c.impl, c.test)
		if err != nil {
			return nil, err
		}
		bj := daemon.BatchJob{Check: job.Check{Program: job.Program{Name: c.impl}, Test: c.test, Model: c.model}}
		if err := add("single", c.impl+"/"+c.test+"/"+c.model, bj, map[string]bool{c.model: true}, n); err != nil {
			return nil, err
		}
	}
	for _, c := range batchChecks {
		n, err := refCount(c.impl, c.test)
		if err != nil {
			return nil, err
		}
		pass := map[string]bool{}
		for _, m := range batchModels {
			pass[m] = true
		}
		bj := daemon.BatchJob{Check: job.Check{Program: job.Program{Name: c.impl}, Test: c.test}, Models: batchModels}
		if err := add("batch", c.impl+"/"+c.test+"/4-model", bj, pass, n); err != nil {
			return nil, err
		}
	}
	for _, c := range nofenceChecks {
		bj := daemon.BatchJob{Check: job.Check{Program: job.Program{Name: c.impl}, Test: c.test, Model: "relaxed"}}
		if err := add("nofence", c.impl+"/"+c.test+"/relaxed", bj, map[string]bool{"relaxed": false}, 0); err != nil {
			return nil, err
		}
	}
	return items, nil
}

// mix returns the request sequence in seeded order. Each class gets
// its share of serviceRequests, spread evenly over the class's items,
// so every seed sends the same multiset of requests and only their
// order differs; the pools are sized so the shares divide evenly.
// Quick mode keeps the first n.
func mix(seed int64, items []*svcItem, n int) []int {
	byClass := map[string][]int{}
	for i, it := range items {
		byClass[it.class] = append(byClass[it.class], i)
	}
	var seq []int
	for _, c := range serviceClasses {
		pool := byClass[c.name]
		count := int(math.Round(c.share * serviceRequests))
		for k := 0; k < count; k++ {
			seq = append(seq, pool[k%len(pool)])
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq[:n]
}

// serve is the daemon handler, wrapped so that a traced pass records
// a span per request and the admission time up to the first byte of
// the response.
func (w *serviceWorkload) serve(rw http.ResponseWriter, r *http.Request) {
	tr := w.tr.Load()
	if tr == nil {
		w.srv.ServeHTTP(rw, r)
		return
	}
	id := r.Header.Get("X-Cfbench-Request")
	parent, _ := strconv.ParseInt(r.Header.Get("X-Cfbench-Parent"), 10, 64)
	s := tr.open(id, "daemon.handle", parent)
	fw := &firstWrite{ResponseWriter: rw}
	w.srv.ServeHTTP(fw, r)
	tr.end(s)
	if !fw.at.IsZero() {
		tr.add(id, "daemon.admit", s.ID, s.Start, fw.at)
	}
}

// firstWrite notes when the handler first writes its response.
type firstWrite struct {
	http.ResponseWriter
	at time.Time
}

func (f *firstWrite) Write(b []byte) (int, error) {
	if f.at.IsZero() {
		f.at = time.Now()
	}
	return f.ResponseWriter.Write(b)
}

func (f *firstWrite) Flush() {
	if fl, ok := f.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// send posts one request and reads its NDJSON stream to the done line.
// A request that fails or is refused keeps the time it took as its
// latency and counts as not ok.
func (w *serviceWorkload) send(i int) (s svcSample) {
	it := w.items[i]
	s.class = it.class
	id := strconv.FormatInt(w.nextID.Add(1), 10)
	req, err := http.NewRequest(http.MethodPost, w.url+"/v1/check", bytes.NewReader(it.body))
	if err != nil {
		return s
	}
	req.Header.Set("X-Cfbench-Request", id)
	tr := w.tr.Load()
	cs := tr.open(id, "client.request", 0)
	if cs != nil {
		req.Header.Set("X-Cfbench-Parent", strconv.FormatInt(cs.ID, 10))
	}
	t0 := time.Now()
	defer func() {
		if s.lat == 0 {
			s.lat = time.Since(t0)
		}
		if cs != nil {
			tr.end(cs)
		}
	}()
	resp, err := w.client.Do(req)
	if err != nil {
		return s
	}
	defer resp.Body.Close()
	s.status = resp.StatusCode
	if s.status != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // diagnostic only
		s.errMsg = strings.TrimSpace(string(msg))
		return s
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	done := false
	for sc.Scan() {
		var head struct{ Type string }
		if json.Unmarshal(sc.Bytes(), &head) != nil {
			continue
		}
		switch head.Type {
		case "result":
			var line daemon.ResultLine
			if json.Unmarshal(sc.Bytes(), &line) == nil {
				s.lines = append(s.lines, line)
			}
		case "done":
			done = true
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain for connection reuse
	s.lat = time.Since(t0)
	if !done {
		return s
	}
	s.ok, s.wrong = judgeService(it, s.lines)
	for _, l := range s.lines {
		if l.Stats != nil {
			if d, err := time.ParseDuration(l.Stats.TotalTime); err == nil && d > s.check {
				s.check = d
			}
		}
	}
	return s
}

// judgeService checks every result line of a response against the
// item's known answers.
func judgeService(it *svcItem, lines []daemon.ResultLine) (ok, wrong bool) {
	if len(lines) != len(it.pass) {
		return false, true
	}
	for _, l := range lines {
		want, known := it.pass[l.Model]
		switch {
		case !known || l.Error != "":
			return false, true
		case l.Verdict == "unknown":
			return false, false // deadline: a miss, not a wrong answer
		case l.Pass != want || (!l.Pass && l.Cex == ""):
			return false, true
		case l.Pass && it.obs > 0 && (l.Stats == nil || l.Stats.ObsSetSize != it.obs):
			return false, true
		}
	}
	return true, false
}

func (w *serviceWorkload) run(tr *tracer) (*passOut, error) {
	counts := map[string]int{}
	for _, i := range w.seq {
		counts[w.items[i].class]++
	}
	w.cfg.detail("service seed %d: %d requests, classes %v", w.cfg.seed, len(w.seq), counts)
	var before map[string]float64
	if tr != nil {
		before = w.scrape()
		w.tr.Store(tr)
		defer w.tr.Store(nil)
	}

	samples := make([]svcSample, len(w.seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(w.seq) {
					return
				}
				samples[k] = w.send(w.seq[k])
			}
		}()
	}
	wg.Wait()

	out := &passOut{correct: true}
	byClass := map[string][]float64{}
	for k, s := range samples {
		out.attempted++
		if s.ok {
			out.ok++
		}
		if s.wrong {
			out.correct = false
			w.cfg.detail("request %d %s: wrong answer %+v", k, w.items[w.seq[k]].label, s.lines)
		}
		l := ms(s.lat)
		out.checkMS = append(out.checkMS, l)
		byClass[s.class] = append(byClass[s.class], l)
	}
	byItem := map[string][]float64{}
	for k, s := range samples {
		byItem[w.items[w.seq[k]].label] = append(byItem[w.items[w.seq[k]].label], ms(s.lat))
	}
	for _, it := range w.items {
		if xs := byItem[it.label]; len(xs) > 0 {
			w.cfg.detail("item %-28s n=%3d p50 %8.2f max %8.2f ms", it.label, len(xs), quantile(xs, 0.5), quantile(xs, 1))
		}
	}
	p50, p95 := quantile(out.checkMS, 0.5), quantile(out.checkMS, tailQ(len(out.checkMS)))
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		xs := byClass[c]
		w.cfg.detail("class %-8s n=%3d min %8.2f p50 %8.2f max %8.2f ms", c, len(xs),
			quantile(xs, 0), quantile(xs, 0.5), quantile(xs, 1))
	}
	if !w.cfg.quick {
		for _, p := range []struct {
			name string
			v    float64
		}{{"p50", p50}, {"p95", p95}} {
			if c := classOf(byClass, p.v); c == "" {
				return nil, fmt.Errorf("%s %.2f ms falls in a gap between request classes", p.name, p.v)
			} else {
				w.cfg.detail("%s %.2f ms lies inside class %s", p.name, p.v, c)
			}
		}
	}
	if tr != nil {
		w.tr.Store(nil)
		after := w.scrape()
		w.serviceLayers(tr, samples, before, after)
	}
	return out, nil
}

// classOf names a class whose latency range contains v.
func classOf(byClass map[string][]float64, v float64) string {
	for c, xs := range byClass {
		if quantile(xs, 0) <= v && v <= quantile(xs, 1) {
			return c
		}
	}
	return ""
}

// scrape reads the daemon's numeric /metrics samples.
func (w *serviceWorkload) scrape() map[string]float64 {
	out := map[string]float64{}
	resp, err := w.client.Get(w.url + "/metrics")
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out
}

// serviceLayers folds a traced pass into counters the layers() call
// reads: the daemon's NDJSON stats lines, its /metrics deltas, and the
// handler spans.
func (w *serviceWorkload) serviceLayers(tr *tracer, samples []svcSample, before, after map[string]float64) {
	var hits, misses, groups float64
	for _, s := range samples {
		if s.status == http.StatusServiceUnavailable {
			tr.count("daemon.refused", 1)
		}
		tr.count("daemon.check_ms", ms(s.check))
		tr.count("daemon.overhead_ms", ms(s.lat-s.check))
		grouped := false
		for _, l := range s.lines {
			if l.Stats == nil {
				continue
			}
			st := l.Stats
			grouped = grouped || st.SweepGroups > 0
			if st.Backend == "rf" {
				tr.count("rf.checks", 1)
			}
			if strings.Contains(st.RouterDecision, "rf fell back") {
				tr.count("rf.fallbacks", 1)
			}
			hits += float64(st.CacheHits)
			misses += float64(st.CacheMisses)
			tr.count("core.encodes_reused", float64(st.EncodesReused))
			tr.count("spec.mine_iterations", float64(st.MineIterations))
			tr.count("encode.cnf_clauses", float64(st.CNFClauses))
		}
		if grouped {
			groups++ // a request holds one entry, so at most one group
		}
	}
	tr.count("core.sweep_groups", groups)
	if hits+misses > 0 {
		tr.count("core.speccache_hit_frac", hits/(hits+misses))
	}
	// The daemon adds each member's SweepGroups, so its counter grows by
	// the group size per group (see NOTES.md); print it beside ours.
	w.cfg.detail("sweep groups %.0f; daemon /metrics checkfenced_sweep_groups_total grew by %.0f",
		groups, after["checkfenced_sweep_groups_total"]-before["checkfenced_sweep_groups_total"])
}

func (w *serviceWorkload) layers(tr *tracer) (map[string]float64, error) {
	m := zeroLayers()
	for _, name := range []string{"daemon.refused", "daemon.check_ms", "daemon.overhead_ms", "rf.checks",
		"rf.fallbacks", "core.speccache_hit_frac", "core.encodes_reused", "spec.mine_iterations",
		"encode.cnf_clauses", "core.sweep_groups"} {
		m[name] = tr.counters[name]
	}
	m["daemon.admit_ms"] = tr.totalMS("daemon.admit")
	cov := tr.coverage("client.request")
	m["bench.span_coverage_min"] = 1
	for _, c := range cov {
		if c < m["bench.span_coverage_min"] {
			m["bench.span_coverage_min"] = c
		}
	}
	return m, nil
}
