package cluster_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/cluster"
	"repro/internal/cluster/clustertest"
	"repro/internal/drift"
	"repro/internal/events"
	"repro/internal/fleet"
	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/preprocess"
	"repro/internal/shard"
)

// realFixture builds a scaler and a discriminating forest (the stamp
// models answer the same probabilities for every input, which would make
// an equivalence test vacuous).
func realFixture(t *testing.T, window, sensors int) (*preprocess.StandardScaler, *forest.Classifier) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	train := mat.New(50, window*sensors)
	for i := range train.Data {
		train.Data[i] = rng.NormFloat64()*20 + 40
	}
	var scaler preprocess.StandardScaler
	if _, err := scaler.FitTransform(train); err != nil {
		t.Fatal(err)
	}
	dim := preprocess.CovarianceDim(sensors)
	x := mat.New(300, dim)
	y := make([]int, x.Rows)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range y {
		y[i] = rng.Intn(8)
	}
	f := forest.New(forest.Config{NumTrees: 20, Bootstrap: true, Seed: 4})
	if err := f.Fit(x, y, 8); err != nil {
		t.Fatal(err)
	}
	return &scaler, f
}

// postJob sends every sample of one job as a single NDJSON ingest request
// to the given node — one request per job keeps the job's sample order
// end-to-end, whichever node owns it.
func postJob(t *testing.T, url string, job int, samples [][]float64) (accepted, rejected int) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, vals := range samples {
		if err := enc.Encode(map[string]any{"job": job, "values": vals}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url+"/v1/ingest", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatalf("ingest job %d: %v", job, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest job %d: status %d: %s", job, resp.StatusCode, body)
	}
	var out struct {
		Accepted int `json:"accepted"`
		Rejected int `json:"rejected"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("ingest job %d: parsing response %q: %v", job, body, err)
	}
	return out.Accepted, out.Rejected
}

// fetchPrediction reads a job's prediction over HTTP from an arbitrary
// node, following the cluster's 307 redirect to the owner.
func fetchPrediction(t *testing.T, url string, job int) (class int, probs []float64) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d/prediction", url, job))
	if err != nil {
		t.Fatalf("prediction job %d: %v", job, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prediction job %d: status %d: %s", job, resp.StatusCode, body)
	}
	var out struct {
		Class int       `json:"class"`
		Probs []float64 `json:"probs"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("prediction job %d: parsing %q: %v", job, body, err)
	}
	return out.Class, out.Probs
}

// probeJob hands out job IDs far above anything the tests ingest, so
// generation probes never collide with replay traffic.
var probeJob atomic.Int64

func init() { probeJob.Store(1 << 20) }

// stampServedBy reports which stamped generation a member's core is
// serving right now: feed a fresh job one full window, tick, and read the
// stamp out of the prediction. Goes through the core directly so it works
// on any member regardless of routing or liveness.
func stampServedBy(t *testing.T, m *clustertest.Member, window, sensors int) int {
	t.Helper()
	job := int(probeJob.Add(1))
	vals := make([]float64, sensors)
	for s := 0; s < window; s++ {
		if err := m.Core.Ingest(job, vals); err != nil {
			t.Fatalf("probe ingest on node %d: %v", m.ID, err)
		}
	}
	if _, err := m.Core.Tick(); err != nil {
		t.Fatalf("probe tick on node %d: %v", m.ID, err)
	}
	// EndJob reads the final prediction and evicts the probe job, so
	// repeated probing cannot bloat the registry (and slow every tick).
	pred, ok := m.Core.EndJob(job)
	if !ok {
		t.Fatalf("probe job %d on node %d has no prediction after a full window", job, m.ID)
	}
	return clustertest.StampOf(pred.Probs)
}

// TestClusterEquivalenceWithSingleCore is the tentpole invariant: a
// replay spread across a 3-node cluster — every job entering at a node
// chosen without regard to ownership, samples forwarded peer-to-peer, the
// owner classifying — ends bit-identical to the same replay through one
// in-process sharded monitor. Node routing must be a pure placement
// decision with zero numeric footprint.
func TestClusterEquivalenceWithSingleCore(t *testing.T) {
	const (
		window  = 6
		sensors = 3
		jobs    = 24
		perJob  = 10
	)
	scaler, model := realFixture(t, window, sensors)
	c := clustertest.Start(t, clustertest.Options{
		Nodes: 3, Window: window, Sensors: sensors,
		Scaler: scaler, Model: model,
	})

	rng := rand.New(rand.NewSource(23))
	replay := make([][][]float64, jobs)
	for j := range replay {
		replay[j] = make([][]float64, perJob)
		for s := range replay[j] {
			vals := make([]float64, sensors)
			for k := range vals {
				vals[k] = rng.NormFloat64()
			}
			replay[j][s] = vals
		}
	}

	total := 0
	for j, samples := range replay {
		acc, rej := postJob(t, c.URLs[j%3], j, samples)
		if rej != 0 || acc != perJob {
			t.Fatalf("job %d: accepted %d rejected %d, want %d/0", j, acc, rej, perJob)
		}
		total += acc
	}
	for i := 0; i < 3; i++ {
		if err := c.Member(i).Cluster.Flush(5 * time.Second); err != nil {
			t.Fatalf("flushing node %d: %v", i, err)
		}
	}
	ingested := func() uint64 {
		var sum uint64
		for i := 0; i < 3; i++ {
			sum += c.Member(i).Core.SamplesIngested()
		}
		return sum
	}
	if !clustertest.Settle(5*time.Second, func() bool { return ingested() == uint64(total) }) {
		t.Fatalf("cluster ingested %d of %d accepted samples", ingested(), total)
	}
	// Deterministic final scoring pass on every node (the servers' own
	// tick loops are also running; re-ticking a clean fleet is idempotent).
	for i := 0; i < 3; i++ {
		if _, err := c.Member(i).Core.Tick(); err != nil {
			t.Fatalf("final tick on node %d: %v", i, err)
		}
	}

	// The reference: one in-process sharded core, same replay, same order
	// within each job.
	ref, err := shard.New(shard.Config{
		Window: window, Sensors: sensors, Scaler: scaler, Model: model, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for j, samples := range replay {
		for _, vals := range samples {
			if err := ref.Ingest(j, vals); err != nil {
				t.Fatalf("reference ingest job %d: %v", j, err)
			}
		}
	}
	if _, err := ref.Tick(); err != nil {
		t.Fatal(err)
	}

	for j := range replay {
		want, ok := ref.Prediction(j)
		if !ok {
			t.Fatalf("reference has no prediction for job %d", j)
		}
		// Read through a node that usually does not own the job, so the
		// 307 redirect path is part of the invariant.
		class, probs := fetchPrediction(t, c.URLs[(j+1)%3], j)
		if class != want.Class {
			t.Errorf("job %d: cluster class %d, reference class %d", j, class, want.Class)
		}
		if len(probs) != len(want.Probs) {
			t.Fatalf("job %d: %d probs vs reference %d", j, len(probs), len(want.Probs))
		}
		for k := range probs {
			if probs[k] != want.Probs[k] {
				t.Errorf("job %d class %d: cluster prob %v != reference %v", j, k, probs[k], want.Probs[k])
			}
		}
	}

	// Forwarding accounting must balance exactly on the clean path.
	var forwarded, dropped, errs, received uint64
	for i := 0; i < 3; i++ {
		f, d, e, r := c.Member(i).Cluster.ForwardStats()
		forwarded += f
		dropped += d
		errs += e
		received += r
	}
	if dropped != 0 || errs != 0 {
		t.Errorf("clean replay dropped %d / errored %d forwarded samples", dropped, errs)
	}
	if forwarded != received {
		t.Errorf("forwarded %d samples but peers received %d", forwarded, received)
	}
}

// TestClusterKillNodeBoundedLoss kills a node mid-replay. The contract is
// not zero loss — it is bounded, *accounted* loss: every accepted sample
// is either ingested by some core or counted in the forwarding drop/error
// counters, and once the death is detected, traffic for the dead node's
// keyspace reroutes to the next alive node.
func TestClusterKillNodeBoundedLoss(t *testing.T) {
	const (
		window  = 6
		sensors = 3
		jobs    = 40
		perJob  = 6
	)
	c := clustertest.Start(t, clustertest.Options{Nodes: 3, Window: window, Sensors: sensors})

	samples := make([][]float64, perJob)
	for s := range samples {
		samples[s] = make([]float64, sensors)
	}
	accepted := 0
	for j := 0; j < jobs; j++ {
		if j == jobs/2 {
			c.Kill(2)
		}
		acc, _ := postJob(t, c.URLs[0], j, samples)
		accepted += acc
	}
	if err := c.Member(0).Cluster.Flush(5 * time.Second); err != nil {
		t.Fatalf("flushing node 0: %v", err)
	}

	if !clustertest.Settle(3*time.Second, func() bool { return !c.Member(0).Cluster.Alive()[2] }) {
		t.Fatal("node 0 never declared node 2 dead")
	}

	var cores uint64
	for i := 0; i < 3; i++ {
		cores += c.Member(i).Core.SamplesIngested() // the dead core stays readable
	}
	_, dropped, errs, _ := c.Member(0).Cluster.ForwardStats()
	if cores > uint64(accepted) {
		t.Errorf("cores hold %d samples but only %d were accepted", cores, accepted)
	}
	if cores+dropped+errs < uint64(accepted) {
		t.Errorf("unaccounted loss: %d accepted, %d ingested + %d dropped + %d errored",
			accepted, cores, dropped, errs)
	}
	if cores == uint64(accepted) && dropped == 0 && errs == 0 {
		t.Log("note: kill landed between forwarding windows; no samples were in flight")
	}

	// Rerouting: a job whose hash lands on the dead node must now resolve
	// to a live owner and classify there.
	dead := -1
	for j := jobs; j < jobs+64; j++ {
		if int(fleet.JobHash(j)%3) == 2 {
			dead = j
			break
		}
	}
	if dead < 0 {
		t.Fatal("no job id hashing to node 2 in the probe range")
	}
	owner := c.Member(0).Cluster.Owner(dead)
	if owner == 2 {
		t.Fatalf("job %d still routed to the dead node", dead)
	}
	full := make([][]float64, window)
	for s := range full {
		full[s] = make([]float64, sensors)
	}
	if acc, rej := postJob(t, c.URLs[0], dead, full); rej != 0 || acc != window {
		t.Fatalf("rerouted job %d: accepted %d rejected %d", dead, acc, rej)
	}
	if err := c.Member(0).Cluster.Flush(5 * time.Second); err != nil {
		t.Fatalf("flushing node 0: %v", err)
	}
	if !clustertest.Settle(3*time.Second, func() bool {
		_, ok := c.Member(owner).Core.Prediction(dead)
		return ok
	}) {
		t.Fatalf("rerouted job %d never classified on node %d", dead, owner)
	}
}

// TestClusterRestartConverges restarts a killed node and requires it to
// rejoin and converge to the fleet's live artifact — same generation,
// same CRC identity, serving the same stamped model — purely through
// anti-entropy, with no operator action.
func TestClusterRestartConverges(t *testing.T) {
	const (
		window  = 6
		sensors = 3
	)
	c := clustertest.Start(t, clustertest.Options{Nodes: 3, Window: window, Sensors: sensors})
	dir := t.TempDir()
	art1 := clustertest.StampArtifact(t, dir, window, sensors, c.Opts.Scaler, 1)
	art2 := clustertest.StampArtifact(t, dir, window, sensors, c.Opts.Scaler, 2)

	if _, err := c.Member(0).Cluster.DistributeFile(art1); err != nil {
		t.Fatalf("distributing stamp 1: %v", err)
	}
	for i := 0; i < 3; i++ {
		if got := stampServedBy(t, c.Member(i), window, sensors); got != 1 {
			t.Fatalf("node %d serves stamp %d after first roll, want 1", i, got)
		}
	}

	c.Kill(2)
	if !clustertest.Settle(3*time.Second, func() bool { return !c.Member(0).Cluster.Alive()[2] }) {
		t.Fatal("node 0 never declared node 2 dead")
	}
	// The roll proceeds without the dead node.
	if _, err := c.Member(0).Cluster.DistributeFile(art2); err != nil {
		t.Fatalf("distributing stamp 2 with a dead node: %v", err)
	}
	if gen := c.Member(0).Cluster.Gen(); gen != 2 {
		t.Fatalf("coordinator at gen %d after second roll, want 2", gen)
	}

	c.Restart(2)
	m2 := c.Member(2)
	if got := stampServedBy(t, m2, window, sensors); got != 0 {
		t.Fatalf("restarted node serves stamp %d before converging, want boot model (0)", got)
	}
	wantIdent := c.Member(0).Cluster.Identity()
	if !clustertest.Settle(5*time.Second, func() bool {
		return m2.Cluster.Gen() == 2 && m2.Cluster.Identity() == wantIdent
	}) {
		t.Fatalf("restarted node stuck at gen %d identity %q, want gen 2 %q",
			m2.Cluster.Gen(), m2.Cluster.Identity(), wantIdent)
	}
	if got := stampServedBy(t, m2, window, sensors); got != 2 {
		t.Fatalf("restarted node serves stamp %d after converging, want 2", got)
	}
	if !clustertest.Settle(3*time.Second, func() bool { return c.Member(0).Cluster.Status().Converged }) {
		t.Fatal("coordinator never reported the cluster converged after the rejoin")
	}
}

// TestClusterSwapNamesClassesOnEveryNode pins that a generation is installed
// the same way however it reaches a node: after one roll, the coordinator
// (node 0), a peer that committed on its say-so (node 1) and a restarted
// node that caught up by anti-entropy (node 2) all name classes as the
// artifact's metadata does, on /healthz and on prediction reads.
func TestClusterSwapNamesClassesOnEveryNode(t *testing.T) {
	const (
		window  = 6
		sensors = 3
		stamp   = 5
	)
	c := clustertest.Start(t, clustertest.Options{Nodes: 3, Window: window, Sensors: sensors})
	art := clustertest.StampArtifact(t, t.TempDir(), window, sensors, c.Opts.Scaler, stamp)
	if _, err := c.Member(0).Cluster.DistributeFile(art); err != nil {
		t.Fatalf("distributing the stamp artifact: %v", err)
	}
	c.Kill(2)
	c.Restart(2)
	wantIdent := c.Member(0).Cluster.Identity()
	if m2 := c.Member(2); !clustertest.Settle(5*time.Second, func() bool {
		return m2.Cluster.Gen() == 1 && m2.Cluster.Identity() == wantIdent
	}) {
		t.Fatalf("restarted node stuck at gen %d identity %q, want gen 1 %q",
			m2.Cluster.Gen(), m2.Cluster.Identity(), wantIdent)
	}

	want := clustertest.StampClassNames(stamp)
	getJSON := func(url string, v any) int {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
				t.Fatalf("GET %s: %v", url, err)
			}
		}
		return resp.StatusCode
	}
	for i := 0; i < 3; i++ {
		m := c.Member(i)
		var health struct {
			Classes []string `json:"classes"`
		}
		if code := getJSON(m.URL+"/healthz", &health); code != http.StatusOK {
			t.Fatalf("node %d /healthz: status %d", i, code)
		}
		if fmt.Sprint(health.Classes) != fmt.Sprint(want) {
			t.Errorf("node %d /healthz classes %v, want the artifact's %v", i, health.Classes, want)
		}

		// A job this node owns, classified by its own tick loop.
		job := 7000
		for m.Cluster.Owner(job) != i {
			job++
		}
		samples := make([][]float64, window)
		for s := range samples {
			samples[s] = make([]float64, sensors)
		}
		if accepted, rejected := postJob(t, m.URL, job, samples); accepted != window || rejected != 0 {
			t.Fatalf("node %d ingest: %d accepted, %d rejected", i, accepted, rejected)
		}
		var pred struct {
			Class     int       `json:"class"`
			ClassName string    `json:"class_name"`
			Probs     []float64 `json:"probs"`
		}
		url := fmt.Sprintf("%s/v1/jobs/%d/prediction", m.URL, job)
		if !clustertest.Settle(5*time.Second, func() bool { return getJSON(url, &pred) == http.StatusOK }) {
			t.Fatalf("node %d never classified job %d", i, job)
		}
		if got := clustertest.StampOf(pred.Probs); got != stamp {
			t.Fatalf("node %d serves stamp %d, want %d", i, got, stamp)
		}
		if pred.ClassName != want[pred.Class] {
			t.Errorf("node %d serves class_name %q for class %d, want %q", i, pred.ClassName, pred.Class, want[pred.Class])
		}
	}
}

// TestClusterStallMidSwapServesOldGeneration holds one replica's prepare
// mid-roll and pins the torn-generation invariant: while any node has not
// prepared, every node keeps serving the old generation — the staged one
// is visible in status but serves nothing.
func TestClusterStallMidSwapServesOldGeneration(t *testing.T) {
	const (
		window  = 6
		sensors = 3
	)
	c := clustertest.Start(t, clustertest.Options{
		Nodes: 3, Window: window, Sensors: sensors,
		RPCTimeout: 10 * time.Second, // longer than the hold, so the roll survives it
	})
	dir := t.TempDir()
	art1 := clustertest.StampArtifact(t, dir, window, sensors, c.Opts.Scaler, 1)
	art2 := clustertest.StampArtifact(t, dir, window, sensors, c.Opts.Scaler, 2)
	if _, err := c.Member(0).Cluster.DistributeFile(art1); err != nil {
		t.Fatalf("distributing stamp 1: %v", err)
	}

	release := c.Fault.Hold(strings.TrimPrefix(c.URLs[2], "http://") + "/cluster/v1/swap/prepare")
	defer release()
	done := make(chan error, 1)
	go func() { _, err := c.Member(0).Cluster.DistributeFile(art2); done <- err }()

	// Node 1 prepares gen 2 while node 2's prepare hangs...
	if !clustertest.Settle(5*time.Second, func() bool {
		return c.Member(1).Cluster.Status().StagedGen == 2
	}) {
		t.Fatal("node 1 never staged gen 2")
	}
	// A competing roll is refused while this one is in flight.
	if _, err := c.Member(0).Cluster.DistributeFile(art1); !errors.Is(err, cluster.ErrSwapInFlight) {
		t.Errorf("concurrent roll returned %v, want ErrSwapInFlight", err)
	}
	// ...and the cluster still serves gen 1 everywhere: staged ≠ serving.
	for i := 0; i < 3; i++ {
		if gen := c.Member(i).Cluster.Gen(); gen != 1 {
			t.Errorf("node %d at gen %d during the stall, want 1", i, gen)
		}
		if got := stampServedBy(t, c.Member(i), window, sensors); got != 1 {
			t.Errorf("node %d serves stamp %d during the stall, want 1", i, got)
		}
	}

	release()
	if err := <-done; err != nil {
		t.Fatalf("roll failed after the stall cleared: %v", err)
	}
	for i := 0; i < 3; i++ {
		if gen := c.Member(i).Cluster.Gen(); gen != 2 {
			t.Errorf("node %d at gen %d after the roll, want 2", i, gen)
		}
		if got := stampServedBy(t, c.Member(i), window, sensors); got != 2 {
			t.Errorf("node %d serves stamp %d after the roll, want 2", i, got)
		}
	}
}

// TestClusterStallTimeoutAborts is the other half of the stall story: if
// the stalled replica never answers, the roll aborts everywhere — staying
// on generation G on every node beats splitting the fleet across G and
// G+1 — and a later retry succeeds.
func TestClusterStallTimeoutAborts(t *testing.T) {
	const (
		window  = 6
		sensors = 3
	)
	c := clustertest.Start(t, clustertest.Options{
		Nodes: 3, Window: window, Sensors: sensors,
		RPCTimeout: 700 * time.Millisecond, // shorter than the hold: the prepare times out
	})
	dir := t.TempDir()
	art1 := clustertest.StampArtifact(t, dir, window, sensors, c.Opts.Scaler, 1)
	art2 := clustertest.StampArtifact(t, dir, window, sensors, c.Opts.Scaler, 2)
	if _, err := c.Member(0).Cluster.DistributeFile(art1); err != nil {
		t.Fatalf("distributing stamp 1: %v", err)
	}

	release := c.Fault.Hold(strings.TrimPrefix(c.URLs[2], "http://") + "/cluster/v1/swap/prepare")
	if _, err := c.Member(0).Cluster.DistributeFile(art2); err == nil {
		t.Fatal("roll succeeded although one replica never prepared")
	}
	for i := 0; i < 3; i++ {
		if gen := c.Member(i).Cluster.Gen(); gen != 1 {
			t.Errorf("node %d at gen %d after the aborted roll, want 1", i, gen)
		}
		if got := stampServedBy(t, c.Member(i), window, sensors); got != 1 {
			t.Errorf("node %d serves stamp %d after the aborted roll, want 1", i, got)
		}
	}
	if !clustertest.Settle(3*time.Second, func() bool {
		return c.Member(0).Cluster.Status().StagedGen == 0 && c.Member(1).Cluster.Status().StagedGen == 0
	}) {
		t.Fatal("staged generation lingered after the abort")
	}

	release()
	if _, err := c.Member(0).Cluster.DistributeFile(art2); err != nil {
		t.Fatalf("retry after the stall cleared failed: %v", err)
	}
	for i := 0; i < 3; i++ {
		if got := stampServedBy(t, c.Member(i), window, sensors); got != 2 {
			t.Errorf("node %d serves stamp %d after the retry, want 2", i, got)
		}
	}
}

// TestClusterPrepareProvesWhatCommitNeeds offers a 3-node fleet of 3-sensor
// cores an artifact whose drift reference covers 4 sensors. Commit would
// refuse it on every node (the core checks a calibration against its sensor
// count), so prepare must: the coordinator's own prepare fails, the roll
// aborts before any peer is asked to pull it — a refused artifact never
// leaves the coordinator — and nothing is committed or logged as a commit
// failure anywhere.
func TestClusterPrepareProvesWhatCommitNeeds(t *testing.T) {
	const (
		window  = 6
		sensors = 3
	)
	var (
		logMu sync.Mutex
		lines []string
	)
	c := clustertest.Start(t, clustertest.Options{
		Nodes: 3, Window: window, Sensors: sensors,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})

	model := clustertest.StampModel(t, sensors, 1)
	probs, err := model.PredictProbaBatch(mat.New(8, preprocess.CovarianceDim(sensors)))
	if err != nil {
		t.Fatal(err)
	}
	raw := mat.New(200, sensors+1) // one raw column more than the fleet has sensors
	for i := range raw.Data {
		raw.Data[i] = float64(i % 13)
	}
	cal, err := drift.Fit(drift.FitInput{Probs: probs, RawSamples: raw}, drift.Options{})
	if err != nil {
		t.Fatal(err)
	}
	art := filepath.Join(t.TempDir(), "misfit.wcc")
	if err := artifact.Save(art, &artifact.Artifact{
		Meta:   artifact.Metadata{Features: "cov", Window: window, Sensors: sensors, ClassNames: clustertest.StampClassNames(1)},
		Scaler: c.Opts.Scaler,
		Drift:  cal,
		Model:  model,
	}); err != nil {
		t.Fatal(err)
	}

	sub := c.Member(0).Cluster.Server().Events().Subscribe(events.SubOptions{Types: []events.Type{events.TypeClusterSwap}})
	defer sub.Close()
	_, err = c.Member(0).Cluster.DistributeFile(art)
	if err == nil || !strings.Contains(err.Error(), "preparing gen 1 locally") ||
		!strings.Contains(err.Error(), "drift reference covers 4 sensors, fleet has 3") {
		t.Fatalf("DistributeFile = %v, want the coordinator's prepare to refuse the calibration", err)
	}

	// Phases are published synchronously by the roll, so they are all queued.
	var phases []string
	for len(sub.Events()) > 0 {
		phases = append(phases, (<-sub.Events()).Phase)
	}
	if got := strings.Join(phases, ","); got != "aborted" {
		t.Errorf("swap phases %q, want aborted (prepared must never be published)", got)
	}
	for i := 1; i < 3; i++ {
		if got := metricValue(t, c.URLs[i], "wcc_cluster_replications_total"); got != 0 {
			t.Errorf("node %d fetched and persisted %v artifacts, want 0", i, got)
		}
	}
	logMu.Lock()
	for _, l := range lines {
		if strings.Contains(l, "commit") {
			t.Errorf("a commit was attempted: %q", l)
		}
	}
	logMu.Unlock()
	for i := 0; i < 3; i++ {
		m := c.Member(i)
		if gen, swaps := m.Cluster.Gen(), m.Core.Swaps(); gen != 0 || swaps != 0 {
			t.Errorf("node %d at gen %d after %d swaps, want gen 0 untouched", i, gen, swaps)
		}
		if st := m.Cluster.Status(); !st.Converged || st.StagedGen != 0 {
			t.Errorf("node %d: converged %v, staged gen %d; want converged with nothing staged", i, st.Converged, st.StagedGen)
		}
	}
}

// TestClusterRollingSwapsUnderChurn rolls through 20 generations with
// rotating coordinators, transient prepare stalls every fifth roll, and a
// per-node prober asserting the serving stamp only ever moves forward. No
// roll may leave any node behind or show a torn generation to a prober.
func TestClusterRollingSwapsUnderChurn(t *testing.T) {
	const (
		window  = 6
		sensors = 3
		rolls   = 20
	)
	c := clustertest.Start(t, clustertest.Options{Nodes: 3, Window: window, Sensors: sensors})
	dir := t.TempDir()
	arts := make([]string, rolls+1)
	for k := 1; k <= rolls; k++ {
		arts[k] = clustertest.StampArtifact(t, dir, window, sensors, c.Opts.Scaler, k)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			last := -1
			for {
				select {
				case <-done:
					return
				default:
				}
				got := stampServedBy(t, c.Member(i), window, sensors)
				if got < last {
					t.Errorf("node %d stamp went backwards: %d after %d", i, got, last)
					return
				}
				last = got
				time.Sleep(time.Millisecond)
			}
		}(i)
	}

	retried := 0
	for k := 1; k <= rolls; k++ {
		if k%5 == 0 {
			release := c.Fault.Hold(strings.TrimPrefix(c.URLs[2], "http://") + "/cluster/v1/swap/prepare")
			time.AfterFunc(30*time.Millisecond, release)
		}
		// Commit rolls peer by peer, so a peer's heartbeat can see a
		// neighbour already on the new generation and start an anti-entropy
		// catch-up, which holds that peer's swap semaphore for a moment after
		// the roll has returned; a peer whose commit RPC failed is brought
		// level by the same catch-up. The artifact watcher meets
		// ErrSwapInFlight by trying again at its next poll. So does the
		// test, for a bounded time, and it allows a peer the same time to
		// reach the generation.
		coord := c.Member(k % 3).Cluster
		var err error
		if !clustertest.Settle(3*time.Second, func() bool {
			_, err = coord.DistributeFile(arts[k])
			if errors.Is(err, cluster.ErrSwapInFlight) {
				retried++
				return false
			}
			return true
		}) || err != nil {
			t.Fatalf("roll %d via node %d (%d retries so far): %v", k, k%3, retried, err)
		}
		for i := 0; i < 3; i++ {
			node := c.Member(i).Cluster
			if !clustertest.Settle(3*time.Second, func() bool { return node.Gen() == uint64(k) }) {
				t.Fatalf("after roll %d node %d is at gen %d", k, i, node.Gen())
			}
		}
	}
	close(done)
	wg.Wait()
	t.Logf("%d rolls, %d retried after ErrSwapInFlight", rolls, retried)

	ident := c.Member(0).Cluster.Identity()
	for i := 1; i < 3; i++ {
		if got := c.Member(i).Cluster.Identity(); got != ident {
			t.Errorf("node %d identity %q diverged from node 0's %q", i, got, ident)
		}
	}
}
