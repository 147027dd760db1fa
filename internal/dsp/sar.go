package dsp

import "efficsense/internal/isa"

// SuccessiveApprox runs the successive approximation of an N-bit SAR
// converter, N = len(w), over len(dst) samples, several samples per
// register. For sample s it forms the target t = in[s] + half and, from
// acc = 0 and code = 0, for each bit b (MSB first) the trial level
// trial = acc + w[b] and the comparator decision t + n ≥ trial, where the
// comparator noise n is 0 + sigma·u[s·N + b] when u is non-nil and 0
// when it is nil. A 1 keeps the trial (acc = trial); every decision
// shifts into code. It writes dst[s] = (code + 0.5)·lsb − half.
//
// This is adc.SAR.ConvertCode followed by CodeToVoltage, decision for
// decision: u holds the unit draws of the comparator noise stream in
// the order ConvertCode draws them, sample by sample and bit by bit.
// len(w) must not exceed 53, so that code·2 + bit is the integer shift
// exactly in a float64 (the SAR has at most 24 bits). in must be at
// least len(dst) long and may be dst itself.
func SuccessiveApprox(dst, in, u, w []float64, sigma, half, lsb float64) {
	in = in[:len(dst)]
	n := 0
	if isa.Kernels() == isa.AVX512 && len(w) > 0 {
		n = len(dst) &^ 7
	}
	var uv, ug []float64 // the noise of the vector part and of the rest
	if u != nil {
		uv, ug = u[:n*len(w)], u[n*len(w):len(dst)*len(w)]
	}
	if n > 0 {
		successiveApproxAVX512(dst[:n], in[:n], uv, w, sigma, half, lsb)
	}
	successiveApproxGo(dst[n:], in[n:], ug, w, sigma, half, lsb)
}

// successiveApproxGo is the Go body of SuccessiveApprox. Each decision
// is a 0/1 value (a SETcc, not a branch) that shifts into the code and
// indexes the next accumulator, acc[0] the level kept so far and acc[1]
// the trial; four samples run interleaved, so their chains of dependent
// decisions overlap.
func successiveApproxGo(dst, in, u, w []float64, sigma, half, lsb float64) {
	nb := len(w)
	s := 0
	for ; s+4 <= len(dst); s += 4 {
		t := [4]float64{in[s] + half, in[s+1] + half, in[s+2] + half, in[s+3] + half}
		var acc [4][2]float64
		var code [4]int
		for b, wb := range w {
			var noise [4]float64
			if u != nil {
				for l := range noise {
					noise[l] = 0 + sigma*u[(s+l)*nb+b]
				}
			}
			for l := range acc {
				acc[l][1] = acc[l][0] + wb
				bit := 0
				if t[l]+noise[l] >= acc[l][1] {
					bit = 1
				}
				acc[l][0] = acc[l][bit]
				code[l] = code[l]<<1 | bit
			}
		}
		for l, c := range code {
			dst[s+l] = (float64(c)+0.5)*lsb - half
		}
	}
	for ; s < len(dst); s++ {
		t := in[s] + half
		var acc [2]float64
		code := 0
		for b, wb := range w {
			acc[1] = acc[0] + wb
			noise := 0.0
			if u != nil {
				noise = 0 + sigma*u[s*nb+b]
			}
			bit := 0
			if t+noise >= acc[1] {
				bit = 1
			}
			acc[0] = acc[bit]
			code = code<<1 | bit
		}
		dst[s] = (float64(code)+0.5)*lsb - half
	}
}
