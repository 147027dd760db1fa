package isa

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// asmFiles are the kernel bodies the tiers run.
var asmFiles = []string{"../dsp/kernel_amd64.s", "../xrand/ring_amd64.s"}

var (
	// highReg matches X16–X31, Y16–Y31 and Z16–Z31: EVEX-only registers
	// outside the avx512 tier's Z0–Z15.
	highReg = regexp.MustCompile(`\b[XYZ](1[6-9]|2[0-9]|3[01])\b`)
	zReg    = regexp.MustCompile(`\bZ([0-9]|[12][0-9]|3[01])\b`)
	ident   = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
	define  = regexp.MustCompile(`^#define\s+([A-Za-z_][A-Za-z0-9_]*)(\(([^)]*)\))?\s*(.*)$`)
)

// dqOnZ are the bitwise floating-point forms that need AVX512DQ on ZMM
// registers (AVX512F has only VPANDQ, VPANDNQ, VPORQ and VPXORQ there).
var dqOnZ = map[string]bool{
	"VANDPD": true, "VANDNPD": true, "VORPD": true, "VXORPD": true,
	"VANDPS": true, "VANDNPS": true, "VORPS": true, "VXORPS": true,
}

// kWordF are the opmask instructions of AVX512F: the word forms. The
// byte forms (KMOVB, KORTESTB, …) and KADDW and KTESTW need AVX512DQ,
// the doubleword and quadword forms AVX512BW.
var kWordF = map[string]bool{
	"KANDW": true, "KANDNW": true, "KORW": true, "KXORW": true, "KXNORW": true,
	"KNOTW": true, "KORTESTW": true, "KMOVW": true, "KSHIFTLW": true,
	"KSHIFTRW": true, "KUNPCKBW": true,
}

// TestAssemblyKeepsTierContract reads the kernel assembly, its macros
// expanded, and fails on anything the avx512 tier's contract (AVX512F
// and Z0–Z15 only) rules out: a register above 15 in any width, a
// bitwise floating-point form on ZMM that needs AVX512DQ, or an opmask
// instruction other than AVX512F's word forms. CPUID checks AVX512F
// alone, so such an instruction would fault on an AVX512F-only host
// while every test on a fuller host passes.
func TestAssemblyKeepsTierContract(t *testing.T) {
	for _, path := range asmFiles {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := expandMacros(t, path, string(src))
		if len(lines) == 0 {
			t.Fatalf("%s: no instructions", path)
		}
		for _, ln := range lines {
			if r := highReg.FindString(ln.text); r != "" {
				t.Errorf("%s:%d: register %s is outside X/Y/Z0–15: %s", path, ln.no, r, ln.text)
			}
			op := mnemonic(ln.text)
			if dqOnZ[op] && zReg.MatchString(ln.text) {
				t.Errorf("%s:%d: %s on a ZMM register needs AVX512DQ (use the VP…Q form): %s", path, ln.no, op, ln.text)
			}
			if strings.HasPrefix(op, "K") && !kWordF[op] {
				t.Errorf("%s:%d: opmask instruction %s is not an AVX512F word form: %s", path, ln.no, op, ln.text)
			}
		}
	}
}

// asmLine is one instruction line and the source line it came from.
type asmLine struct {
	no   int
	text string
}

// expandMacros returns the statements of an assembly file with comments
// and #define bodies removed and every macro use replaced by its body,
// arguments substituted, so that a register passed into a macro is
// checked where the macro uses it.
func expandMacros(t *testing.T, path, src string) []asmLine {
	type macro struct {
		params []string
		body   []string
	}
	macros := map[string]macro{}
	var stmts []asmLine
	raw := strings.Split(src, "\n")
	for i := 0; i < len(raw); i++ {
		ln := strings.TrimSpace(stripComment(raw[i]))
		if m := define.FindStringSubmatch(ln); m != nil {
			var params []string
			for _, p := range strings.Split(m[3], ",") {
				if p = strings.TrimSpace(p); p != "" {
					params = append(params, p)
				}
			}
			var body []string
			part := m[4]
			for strings.HasSuffix(part, `\`) && i+1 < len(raw) {
				if s := strings.TrimSpace(strings.TrimSuffix(part, `\`)); s != "" {
					body = append(body, s)
				}
				i++
				part = strings.TrimSpace(stripComment(raw[i]))
			}
			if s := strings.TrimSpace(strings.TrimSuffix(part, `\`)); s != "" {
				body = append(body, s)
			}
			macros[m[1]] = macro{params, body}
			continue
		}
		if ln != "" && !strings.HasPrefix(ln, "#") {
			stmts = append(stmts, asmLine{i + 1, ln})
		}
	}
	for depth := 0; ; depth++ {
		if depth > 8 {
			t.Fatalf("%s: macros nest deeper than 8", path)
		}
		var out []asmLine
		expanded := false
		for _, st := range stmts {
			name := ident.FindString(st.text)
			mac, ok := macros[name]
			if !ok || !strings.HasPrefix(st.text, name) {
				out = append(out, st)
				continue
			}
			expanded = true
			var args []string
			if rest := strings.TrimSpace(st.text[len(name):]); strings.HasPrefix(rest, "(") {
				for _, a := range strings.Split(strings.TrimSuffix(strings.TrimPrefix(rest, "("), ")"), ",") {
					args = append(args, strings.TrimSpace(a))
				}
			}
			if len(args) != len(mac.params) {
				t.Fatalf("%s:%d: %s takes %d arguments, got %d", path, st.no, name, len(mac.params), len(args))
			}
			for _, b := range mac.body {
				b = ident.ReplaceAllStringFunc(b, func(w string) string {
					for k, p := range mac.params {
						if w == p {
							return args[k]
						}
					}
					return w
				})
				out = append(out, asmLine{st.no, b})
			}
		}
		stmts = out
		if !expanded {
			return stmts
		}
	}
}

// stripComment drops a // comment.
func stripComment(s string) string {
	if i := strings.Index(s, "//"); i >= 0 {
		return s[:i]
	}
	return s
}

// mnemonic returns a statement's instruction name, past any label.
func mnemonic(s string) string {
	if i := strings.Index(s, ":"); i >= 0 && !strings.ContainsAny(s[:i], " \t(") {
		s = strings.TrimSpace(s[i+1:])
	}
	return ident.FindString(s)
}
