package vlasov6d

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// vectorRegister matches an X, Y or Z register operand of Go's amd64
// assembler, X0–X31 and the like: AVX-512 names sixteen more of each and
// the Z registers.
var vectorRegister = regexp.MustCompile(`\b[XYZ]([12][0-9]|3[01]|[0-9])\b`)

// TestAssemblyIsVEXOnly fails on any instruction of an internal/**/*_amd64.s
// file that names an X, Y or Z register but is not VEX- or EVEX-encoded
// (its mnemonic does not start with V): MOVQ DX, X0, MOVSD, PXOR and the
// like. A kernel that uses the upper halves of the Y or Z registers pays
// an SSE/AVX transition on every legacy SSE instruction it runs: one MOVQ DX, X9 in a pass over
// the limiter's rejected interfaces doubled the time of a 64×256 plasma
// step, where VMOVQ costs nothing. Macro bodies (#define lines and their
// continuations) are checked too, one instruction per ';'-separated
// statement.
func TestAssemblyIsVEXOnly(t *testing.T) {
	files := 0
	err := filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, "_amd64.s") {
			return err
		}
		files++
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text, _, _ := strings.Cut(sc.Text(), "//")
			text = strings.TrimSuffix(strings.TrimSpace(text), `\`)
			if rest, ok := strings.CutPrefix(text, "#define"); ok {
				// Drop the macro's name and parameter list.
				if i := strings.Index(rest, ")"); i >= 0 {
					rest = rest[i+1:]
				} else {
					rest = ""
				}
				text = rest
			} else if strings.HasPrefix(text, "#") {
				continue
			}
			for _, stmt := range strings.Split(text, ";") {
				stmt = strings.TrimSpace(stmt)
				if i := strings.Index(stmt, ":"); i >= 0 && !strings.ContainsAny(stmt[:i], " \t,(") {
					stmt = strings.TrimSpace(stmt[i+1:]) // a label
				}
				// A macro's use is skipped: its body is checked at its #define.
				fields := strings.Fields(stmt)
				if len(fields) < 2 || strings.HasPrefix(fields[0], "V") || strings.Contains(fields[0], "(") ||
					!vectorRegister.MatchString(strings.Join(fields[1:], " ")) {
					continue
				}
				t.Errorf("%s:%d: %s is not VEX-encoded", p, line, stmt)
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no internal/**/*_amd64.s file found")
	}
}
