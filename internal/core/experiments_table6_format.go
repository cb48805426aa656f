package core

// paperTable6 holds the published RNN accuracies (%) for side-by-side
// reporting.
var paperTable6 = map[string]map[string]float64{
	"LSTM (h=128)":                   {"60-start-1": 82.57, "60-middle-1": 92.09, "60-random-1": 90.81},
	"LSTM (h=128, 2-layer)":          {"60-start-1": 80.51, "60-middle-1": 91.90, "60-random-1": 90.52},
	"CNN-LSTM (h=128)":               {"60-start-1": 82.65, "60-middle-1": 89.90, "60-random-1": 90.55},
	"CNN-LSTM (h=256)":               {"60-start-1": 67.60, "60-middle-1": 89.36, "60-random-1": 88.61},
	"CNN-LSTM (h=512)":               {"60-start-1": 64.45, "60-middle-1": 65.67, "60-random-1": 73.80},
	"CNN-LSTM (h=512, small kernel)": {"60-start-1": 66.26, "60-middle-1": 71.47, "60-random-1": 75.21},
}

// PaperTable6 exposes the published Table VI accuracies (percent).
func PaperTable6() map[string]map[string]float64 { return paperTable6 }

// FormatTable6 renders measured RNN accuracies one row per cell, with the
// paper's value beside each and the run's departures from the paper's
// protocol in the heading.
func FormatTable6(res *Table6Result) string {
	var cells []againstPaper
	for _, d := range res.Datasets {
		for _, m := range res.Models {
			cells = append(cells, againstPaper{d, m, paperTable6[m][d], res.Cells[m][d].TestAccuracy})
		}
	}
	return renderAgainstPaper("Table VI: RNN test accuracy (%), "+res.Setting, cells)
}
