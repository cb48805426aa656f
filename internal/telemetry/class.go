package telemetry

import "fmt"

// Family is one of the ten model families of the paper's Table I.
type Family int

const (
	FamilyVGG Family = iota
	FamilyResNet
	FamilyInception
	FamilyUNet
	FamilyBert
	FamilyDistillBert
	FamilyDimeNet
	FamilySchNet
	FamilyPNA
	FamilyNNConv

	NumFamilies
)

var familyNames = [NumFamilies]string{
	"VGG", "ResNet", "Inception", "U-Net",
	"Bert", "DistillBert", "DimeNet", "SchNet", "PNA", "NNConv",
}

// Domain is the application area grouping of Table I.
type Domain int

const (
	DomainVision Domain = iota
	DomainNLP
	DomainGNN
)

func (d Domain) String() string {
	switch d {
	case DomainVision:
		return "Vision Networks"
	case DomainNLP:
		return "Language Models"
	case DomainGNN:
		return "Graph Neural Networks"
	}
	return "unknown"
}

func (f Family) String() string {
	if f < 0 || f >= NumFamilies {
		return "unknown"
	}
	return familyNames[f]
}

// Domain returns the Table I grouping for the family.
func (f Family) Domain() Domain {
	switch f {
	case FamilyBert, FamilyDistillBert:
		return DomainNLP
	case FamilyDimeNet, FamilySchNet, FamilyPNA, FamilyNNConv:
		return DomainGNN
	default:
		return DomainVision
	}
}

// Class is one of the 26 labelled model architectures (Tables VII-IX).
// The integer value is the y label used in the challenge datasets.
type Class int

const (
	VGG11 Class = iota
	VGG16
	VGG19
	Inception3
	Inception4
	ResNet50
	ResNet50V15
	ResNet101
	ResNet101V2
	ResNet152
	ResNet152V2
	U3x32
	U3x64
	U3x128
	U4x32
	U4x64
	U4x128
	U5x32
	U5x64
	U5x128
	Bert
	DistillBert
	DimeNet
	SchNet
	PNA
	NNConv

	NumClasses // = 26
)

type classInfo struct {
	name   string
	family Family
	// jobCount is the per-class job count from the paper's appendix,
	// reconciled per DESIGN.md so the total is exactly 3,430.
	jobCount int
}

var classTable = [NumClasses]classInfo{
	VGG11:       {"VGG11", FamilyVGG, 185},
	VGG16:       {"VGG16", FamilyVGG, 176},
	VGG19:       {"VGG19", FamilyVGG, 199},
	Inception3:  {"Inception3", FamilyInception, 241},
	Inception4:  {"Inception4", FamilyInception, 243},
	ResNet50:    {"ResNet50", FamilyResNet, 111},
	ResNet50V15: {"ResNet50_v1.5", FamilyResNet, 91},
	ResNet101:   {"ResNet101", FamilyResNet, 77},
	ResNet101V2: {"ResNet101_v2", FamilyResNet, 54},
	ResNet152:   {"ResNet152", FamilyResNet, 76},
	ResNet152V2: {"ResNet152_v2", FamilyResNet, 54},
	U3x32:       {"U3-32", FamilyUNet, 165},
	U3x64:       {"U3-64", FamilyUNet, 159},
	U3x128:      {"U3-128", FamilyUNet, 165},
	U4x32:       {"U4-32", FamilyUNet, 163},
	U4x64:       {"U4-64", FamilyUNet, 158},
	U4x128:      {"U4-128", FamilyUNet, 157},
	U5x32:       {"U5-32", FamilyUNet, 158},
	U5x64:       {"U5-64", FamilyUNet, 158},
	U5x128:      {"U5-128", FamilyUNet, 148},
	Bert:        {"Bert", FamilyBert, 189},
	DistillBert: {"DistillBert", FamilyDistillBert, 172},
	DimeNet:     {"DimeNet", FamilyDimeNet, 33},
	SchNet:      {"SchNet", FamilySchNet, 39},
	PNA:         {"PNA", FamilyPNA, 27},
	NNConv:      {"NNConv", FamilyNNConv, 32},
}

// TotalJobs is the number of labelled jobs in the full-scale dataset (the
// paper's 3,430).
const TotalJobs = 3430

// Name returns the model name exactly as the challenge's model_train /
// model_test arrays spell it.
func (c Class) Name() string {
	if c < 0 || c >= NumClasses {
		return fmt.Sprintf("class(%d)", int(c))
	}
	return classTable[c].name
}

func (c Class) String() string { return c.Name() }

// Family returns the model family of the class.
func (c Class) Family() Family {
	if c < 0 || c >= NumClasses {
		return -1
	}
	return classTable[c].family
}

// JobCount returns the number of labelled jobs of this class in the
// full-scale dataset.
func (c Class) JobCount() int {
	if c < 0 || c >= NumClasses {
		return 0
	}
	return classTable[c].jobCount
}

// AllClasses lists the 26 classes in label order.
func AllClasses() []Class {
	out := make([]Class, NumClasses)
	for i := range out {
		out[i] = Class(i)
	}
	return out
}

// ClassNames lists the 26 class names in label order — the index-to-name
// table artifacts, reports and the serving layer label predictions with.
func ClassNames() []string {
	out := make([]string, NumClasses)
	for i := range out {
		out[i] = Class(i).Name()
	}
	return out
}

// ClassByName resolves a model name (as spelled in the challenge files) to
// its Class, reporting ok=false for unknown names.
func ClassByName(name string) (Class, bool) {
	for i, info := range classTable {
		if info.name == name {
			return Class(i), true
		}
	}
	return -1, false
}

// FamilyJobCount sums the job counts of all classes in family f
// (the paper's Table I rows).
func FamilyJobCount(f Family) int {
	total := 0
	for _, info := range classTable {
		if info.family == f {
			total += info.jobCount
		}
	}
	return total
}
