package pagerdiscipline_test

import (
	"testing"

	"pathcache/internal/analysis/analysistest"
	"pathcache/internal/analysis/pagerdiscipline"
)

func TestViolations(t *testing.T) {
	analysistest.Run(t, "testdata/src/pagerdiscipline_bad", pagerdiscipline.Analyzer)
}

func TestSanctionedPatterns(t *testing.T) {
	analysistest.NoDiagnostics(t, "testdata/src/pagerdiscipline_good", pagerdiscipline.Analyzer)
}

func TestViewWrites(t *testing.T) {
	analysistest.Run(t, "testdata/src/viewwrite_bad", pagerdiscipline.Analyzer)
}

func TestViewWritesSanctioned(t *testing.T) {
	analysistest.NoDiagnostics(t, "testdata/src/viewwrite_good", pagerdiscipline.Analyzer)
}
