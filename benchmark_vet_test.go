package repro

import (
	"os/exec"
	"testing"
)

// TestBenchmarkModuleVets keeps the end-to-end benchmark building:
// benchmark/ is a module of its own (replace repro => ../), so
// `go build ./... && go test ./...` never compiles it, and a re-signed
// executor symbol would break the ladder where nobody looks. Vetting it
// type-checks every file, tests included, offline in a few seconds.
func TestBenchmarkModuleVets(t *testing.T) {
	out, err := exec.Command("go", "vet", "-C", "benchmark", "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go vet -C benchmark ./...: %v\n%s", err, out)
	}
}
