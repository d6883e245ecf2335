package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadManifest feeds readManifest arbitrary bytes after a valid
// header. It must never panic; a corrupt line is tolerated only as the
// file's last (a torn final append) and is an error anywhere earlier; and
// on success every restored row is the latest entry for its key.
func FuzzReadManifest(f *testing.F) {
	row := `{"key":"base|SoI|1","row":{"scenario":"base","scheme":"SoI","seed":1,"energy_kwh":1.5}}`
	for _, seed := range []string{
		"",
		row + "\n",
		row + "\n" + `{"key":"base|SoI|1","error":"panic: boom"}` + "\n",
		row + "\n" + row[:len(row)/2],
		`{"key":` + "\n" + row + "\n",
		"\n\n" + row + "\r\n",
		"null\n[]\n",
	} {
		f.Add([]byte(seed))
	}
	hdr, err := json.Marshal(manifestHeader{Campaign: "fuzz", Hash: "h", Version: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		path := filepath.Join(t.TempDir(), ManifestName)
		if err := os.WriteFile(path, append(append(hdr, '\n'), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := readManifest(path, "h")

		// The expectation, line by line as readManifest's scanner splits them.
		sc := bufio.NewScanner(bytes.NewReader(body))
		sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
		want := map[string]Row{}
		var lines, corrupt []int
		for sc.Scan() {
			lines = append(lines, len(lines))
			if len(sc.Bytes()) == 0 {
				continue
			}
			var e manifestEntry
			if json.Unmarshal(sc.Bytes(), &e) != nil {
				corrupt = append(corrupt, len(lines)-1)
				continue
			}
			if e.Row == nil {
				delete(want, e.Key)
			} else {
				want[e.Key] = *e.Row
			}
		}
		earlyCorrupt := len(corrupt) > 0 && corrupt[0] < len(lines)-1
		switch {
		case earlyCorrupt && err == nil:
			t.Fatalf("corrupt line %d of %d accepted", corrupt[0], len(lines))
		case !earlyCorrupt && err != nil:
			t.Fatalf("valid manifest (torn tail at most) rejected: %v", err)
		case err == nil && len(got) != len(want):
			t.Fatalf("restored %d rows, want %d", len(got), len(want))
		}
		for k, r := range got {
			if w, ok := want[k]; !ok || !rowsEqual(r, w) {
				t.Fatalf("row %q restored as %+v, want %+v", k, r, w)
			}
		}
	})
}
