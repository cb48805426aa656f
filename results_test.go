package repro

import (
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// resultCell is one reproduced accuracy as RESULTS.md prints it, in percent.
type resultCell struct{ paper, ours, delta float64 }

// resultTable parses the "dataset | model | paper | ours | Δ pp" rows under
// the RESULTS.md heading that starts with "### "+prefix, by dataset and model.
func resultTable(t *testing.T, lines []string, prefix string) map[string]map[string]resultCell {
	t.Helper()
	at := -1
	for i, l := range lines {
		if strings.HasPrefix(l, "### "+prefix) {
			at = i
			break
		}
	}
	if at < 0 || at+3 >= len(lines) || lines[at+2] != "| dataset | model | paper | ours | Δ pp |" {
		t.Fatalf("RESULTS.md has no %q table in the dataset | model | paper | ours | Δ pp shape", prefix)
	}
	out := map[string]map[string]resultCell{}
	for _, l := range lines[at+4:] {
		if !strings.HasPrefix(l, "| ") {
			break
		}
		f := strings.Split(strings.TrimSuffix(strings.TrimPrefix(l, "| "), " |"), " | ")
		if len(f) != 5 {
			t.Fatalf("%s: malformed row %q", prefix, l)
		}
		var v [3]float64
		for i, s := range f[2:] {
			var err error
			if v[i], err = strconv.ParseFloat(s, 64); err != nil {
				t.Fatalf("%s: row %q: %v", prefix, l, err)
			}
		}
		if out[f[0]] == nil {
			out[f[0]] = map[string]resultCell{}
		}
		out[f[0]][f[1]] = resultCell{v[0], v[1], v[2]}
	}
	return out
}

// byDataset turns a published model → dataset → accuracy table around.
func byDataset[M ~string](byModel map[M]map[string]float64) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for m, row := range byModel {
		for d, v := range row {
			if out[d] == nil {
				out[d] = map[string]float64{}
			}
			out[d][string(m)] = v
		}
	}
	return out
}

// samePaperCells fails unless got holds exactly the published cells, and
// each row's Δ is its ours − paper.
func samePaperCells(t *testing.T, table string, got map[string]map[string]resultCell, want map[string]map[string]float64) {
	t.Helper()
	n := 0
	for d, row := range got {
		for m, c := range row {
			n++
			if p, ok := want[d][m]; !ok || c.paper != p {
				t.Errorf("%s %s / %s: paper cell %.2f, published %.2f (present %v)", table, d, m, c.paper, p, ok)
			}
			if math.Round(c.ours*100)-math.Round(c.paper*100) != math.Round(c.delta*100) {
				t.Errorf("%s %s / %s: Δ %+.2f is not %.2f − %.2f", table, d, m, c.delta, c.ours, c.paper)
			}
		}
	}
	published := 0
	for _, row := range want {
		published += len(row)
	}
	if n != published {
		t.Errorf("%s: %d cells, the paper has %d", table, n, published)
	}
}

// divergences are the paper orderings the scaled run does not reproduce, by
// ordering and subject, with what RESULTS.md read when each was recorded.
// They are findings about the simulator, not targets to tune away; one that
// starts holding fails the test so that it is deleted here.
var divergences = map[string]string{
	"a/60-middle-1": "SVM PCA 86.67 beats RF Cov. 71.50",
	"b/RF PCA":      "60-start-1 reads 61.50 against 46.17–49.17 on the random sets",
	"c/60-middle-1": "LSTM (h=128) 29.00 against CNN-LSTM (h=512) 34.00",
	"c/60-random-1": "LSTM (h=128) 29.67 against CNN-LSTM (h=512) 39.00",
}

// TestResultsAgainstThePaper reads the committed RESULTS.md — the stdout of
// `go run ./cmd/wccbench -preset scaled -table all` — and runs no
// simulation. Every paper cell must be the published value, and each
// ordering the paper's own tables show must hold on our column or be a
// recorded divergence.
func TestResultsAgainstThePaper(t *testing.T) {
	doc, err := os.ReadFile("RESULTS.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(doc), "\n")
	if lines[0] != "# wccbench -preset scaled -table all" {
		t.Fatalf("RESULTS.md starts %q, not the scaled run's heading", lines[0])
	}
	t5 := resultTable(t, lines, "Table V:")
	t6 := resultTable(t, lines, "Table VI:")
	xgb := resultTable(t, lines, "§IV-B: XGBoost test accuracy")

	samePaperCells(t, "Table V", t5, byDataset(core.PaperTable5()))
	samePaperCells(t, "Table VI", t6, byDataset(core.PaperTable6()))
	samePaperCells(t, "§IV-B", xgb, map[string]map[string]float64{"60-random-1": {"XGBoost": core.PaperXGBAccuracy}})
	if t.Failed() {
		return
	}

	rfCov, lstm, cnn512 := string(core.RFCov), "LSTM (h=128)", "CNN-LSTM (h=512)"
	orderings := []struct {
		id, what string
		// holds reports, per subject, whether the ordering holds in column v.
		holds func(v func(resultCell) float64) map[string]bool
	}{
		{"a", "RF Cov. is the top Table V row (the paper's RF PCA leads on 60-start-1)", func(v func(resultCell) float64) map[string]bool {
			out := map[string]bool{}
			for d, row := range t5 {
				if d == "60-start-1" {
					continue
				}
				out[d] = true
				for _, c := range row {
					out[d] = out[d] && v(c) <= v(row[rfCov])
				}
			}
			return out
		}},
		{"b", "60-start-1 is the hardest dataset (§IV-A)", func(v func(resultCell) float64) map[string]bool {
			out := map[string]bool{}
			for _, m := range []string{rfCov, string(core.RFPCA), string(core.SVMCov)} {
				out[m] = true
				for _, row := range t5 {
					out[m] = out[m] && v(t5["60-start-1"][m]) <= v(row[m])
				}
			}
			return out
		}},
		{"c", "LSTM (h=128) ≥ CNN-LSTM (h=512)", func(v func(resultCell) float64) map[string]bool {
			out := map[string]bool{}
			for d, row := range t6 {
				out[d] = v(row[lstm]) >= v(row[cnn512])
			}
			return out
		}},
		{"d", "XGBoost < RF Cov. (§IV-B)", func(v func(resultCell) float64) map[string]bool {
			d := "60-random-1"
			return map[string]bool{d: v(xgb[d]["XGBoost"]) < v(t5[d][rfCov])}
		}},
	}
	paper := func(c resultCell) float64 { return c.paper }
	ours := func(c resultCell) float64 { return c.ours }
	seen := map[string]bool{}
	for _, o := range orderings {
		for subject, ok := range o.holds(paper) {
			if !ok {
				t.Errorf("(%s) %s: the paper's own column breaks it on %s", o.id, o.what, subject)
			}
		}
		for subject, ok := range o.holds(ours) {
			key := o.id + "/" + subject
			seen[key] = true
			why, recorded := divergences[key]
			switch {
			case !ok && !recorded:
				t.Errorf("(%s) %s: our column breaks it on %s; reproduce it or record %q in divergences", o.id, o.what, subject, key)
			case ok && recorded:
				t.Errorf("(%s) %s: now holds on %s, recorded as %q; delete %q from divergences", o.id, o.what, subject, why, key)
			}
		}
	}
	for key := range divergences {
		if !seen[key] {
			t.Errorf("divergence %q names no ordering and subject the test checks", key)
		}
	}
}
