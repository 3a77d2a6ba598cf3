// Command rscodec demonstrates the Reed-Solomon codec on hex data:
// encode a dataword, optionally corrupt and erase symbols, decode, and
// show every intermediate artifact. It is the quickest way to watch
// errors-and-erasures decoding (and mis-correction) happen.
//
// Examples:
//
//	rscodec -n 18 -k 16 -data 000102030405060708090a0b0c0d0e0f
//	rscodec -n 18 -k 16 -data 000102030405060708090a0b0c0d0e0f -flip 3:ff
//	rscodec -n 36 -k 16 -data 000102030405060708090a0b0c0d0e0f -flip 0:01 -erase 5,9
package main

import (
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/gf"
	"repro/internal/rs"
)

func main() {
	var (
		n     = flag.Int("n", 18, "codeword symbols")
		k     = flag.Int("k", 16, "dataword symbols")
		m     = flag.Int("m", 8, "bits per symbol (hex I/O requires 8)")
		data  = flag.String("data", "", "dataword as hex (k bytes); empty = 00 01 02 ...")
		flips = flag.String("flip", "", "comma-separated pos:xormask corruptions, e.g. 3:ff,7:01")
		erase = flag.String("erase", "", "comma-separated erasure positions, e.g. 5,9")
		quiet = flag.Bool("q", false, "only print the decode verdict")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "rscodec: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}

	if *m != 8 {
		fatal(errors.New("hex I/O supports m=8 only"))
	}
	field, err := gf.NewField(*m)
	if err != nil {
		fatal(err)
	}
	code, err := rs.New(field, *n, *k)
	if err != nil {
		fatal(err)
	}

	dataSyms := make([]gf.Elem, *k)
	if *data == "" {
		for i := range dataSyms {
			dataSyms[i] = gf.Elem(i & 0xff)
		}
	} else {
		raw, err := hex.DecodeString(*data)
		if err != nil {
			fatal(fmt.Errorf("bad -data: %w", err))
		}
		if len(raw) != *k {
			fatal(fmt.Errorf("-data has %d bytes, want k=%d", len(raw), *k))
		}
		for i, b := range raw {
			dataSyms[i] = gf.Elem(b)
		}
	}

	codeword, err := code.Encode(dataSyms)
	if err != nil {
		fatal(err)
	}
	received := append([]gf.Elem(nil), codeword...)
	for _, spec := range splitNonEmpty(*flips) {
		pos, mask, err := parseFlip(spec)
		if err != nil {
			fatal(err)
		}
		if pos < 0 || pos >= *n {
			fatal(fmt.Errorf("flip position %d out of range", pos))
		}
		received[pos] ^= gf.Elem(mask)
	}
	var erasures []int
	for _, spec := range splitNonEmpty(*erase) {
		pos, err := strconv.Atoi(spec)
		if err != nil {
			fatal(fmt.Errorf("bad -erase entry %q: %w", spec, err))
		}
		erasures = append(erasures, pos)
	}

	if !*quiet {
		fmt.Printf("code:      %v (corrects 2e+er <= %d)\n", code, code.Redundancy())
		fmt.Printf("dataword:  %s\n", hexWord(dataSyms))
		fmt.Printf("codeword:  %s\n", hexWord(codeword))
		fmt.Printf("received:  %s\n", hexWord(received))
		if len(erasures) > 0 {
			fmt.Printf("erasures:  %v\n", erasures)
		}
	}

	res, err := code.NewDecoder().Decode(received, erasures)
	if err != nil {
		fmt.Printf("decode:    DETECTED FAILURE (%v)\n", err)
		os.Exit(1)
	}
	status := "clean"
	if res.Flag {
		status = fmt.Sprintf("corrected %d symbol(s) at %v", res.Corrections, res.ErrorPositions)
	}
	fmt.Printf("decode:    OK, %s\n", status)
	if !*quiet {
		fmt.Printf("decoded:   %s\n", hexWord(res.Data))
	}
	for i := range dataSyms {
		if res.Data[i] != dataSyms[i] {
			fmt.Println("verdict:   MIS-CORRECTION — valid codeword, wrong data")
			os.Exit(1)
		}
	}
	fmt.Println("verdict:   data recovered exactly")
}

func parseFlip(spec string) (pos int, mask uint64, err error) {
	parts := strings.SplitN(spec, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad -flip entry %q, want pos:xormask", spec)
	}
	pos, err = strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, fmt.Errorf("bad -flip position %q: %w", parts[0], err)
	}
	mask, err = strconv.ParseUint(parts[1], 16, 8)
	if err != nil {
		return 0, 0, fmt.Errorf("bad -flip mask %q: %w", parts[1], err)
	}
	if mask == 0 {
		return 0, 0, fmt.Errorf("-flip mask must be nonzero")
	}
	return pos, mask, nil
}

func splitNonEmpty(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

func hexWord(w []gf.Elem) string {
	var b strings.Builder
	for i, s := range w {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%02x", s)
	}
	return b.String()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "rscodec: %v\n", err)
	os.Exit(1)
}
