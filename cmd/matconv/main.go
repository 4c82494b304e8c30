// Command matconv converts dense matrices between the whitespace text
// format and the binary on-disk format consumed by the out-of-core
// factorization (tsqrcp.QRCPFile), and generates synthetic matrices of
// arbitrary size by streaming rows straight to disk — the fixture
// generator for datasets bigger than RAM.
//
// Usage:
//
//	matconv in.txt out.tsqrmat          # text → binary (auto-detected)
//	matconv in.tsqrmat out.txt          # binary → text (auto-detected)
//	matconv -info a.tsqrmat             # print header without reading data
//	matconv -gen -rows 2000000 -cols 64 -seed 1 big.tsqrmat
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/mat"
)

func main() {
	var (
		gen  = flag.Bool("gen", false, "generate a synthetic Gaussian matrix instead of converting")
		info = flag.Bool("info", false, "print the binary header of the input and exit")
		rows = flag.Int("rows", 1_000_000, "rows of the generated matrix")
		cols = flag.Int("cols", 64, "columns of the generated matrix")
		seed = flag.Int64("seed", 1, "RNG seed for -gen")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "matconv: %v\n", err)
		os.Exit(1)
	}

	switch {
	case *gen:
		if flag.NArg() != 1 {
			fail(fmt.Errorf("usage: matconv -gen [-rows R -cols C -seed S] out.tsqrmat"))
		}
		if err := generate(flag.Arg(0), *rows, *cols, *seed); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %d×%d matrix (%d MiB) to %s\n",
			*rows, *cols, (8*int64(*rows)*int64(*cols))>>20, flag.Arg(0))
	case *info:
		if flag.NArg() != 1 {
			fail(fmt.Errorf("usage: matconv -info a.tsqrmat"))
		}
		fm, err := mat.OpenBinary(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		fmt.Printf("%s: %d×%d float64 (%d bytes payload)\n",
			flag.Arg(0), fm.Rows(), fm.Cols(), 8*int64(fm.Rows())*int64(fm.Cols()))
		fm.Close()
	default:
		if flag.NArg() != 2 {
			fail(fmt.Errorf("usage: matconv in out (direction auto-detected from the input header)"))
		}
		if err := convert(flag.Arg(0), flag.Arg(1)); err != nil {
			fail(err)
		}
	}
}

// convert auto-detects the input format: a valid binary header means
// binary → text, anything else is parsed as text → binary.
func convert(in, out string) error {
	if a, err := mat.ReadBinaryFile(in); err == nil {
		if err := a.WriteFile(out); err != nil {
			return err
		}
		fmt.Printf("%s: %d×%d binary → text %s\n", in, a.Rows, a.Cols, out)
		return nil
	}
	a, err := mat.ReadFile(in)
	if err != nil {
		return fmt.Errorf("reading %s (neither binary nor text): %w", in, err)
	}
	if err := a.WriteBinaryFile(out); err != nil {
		return err
	}
	fmt.Printf("%s: %d×%d text → binary %s\n", in, a.Rows, a.Cols, out)
	return nil
}

// generate streams a rows×cols standard-Gaussian matrix to path in row
// blocks, so the resident set stays small no matter how large the file —
// this is how the e2e out-of-core fixture (~1 GiB) is produced in CI.
func generate(path string, rows, cols int, seed int64) error {
	if rows < 1 || cols < 1 {
		return fmt.Errorf("generate: need positive dimensions, got %d×%d", rows, cols)
	}
	w, err := mat.NewBinaryWriterFile(path, rows, cols)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	block := 1 << 14
	if block > rows {
		block = rows
	}
	buf := mat.NewDense(block, cols)
	for lo := 0; lo < rows; lo += block {
		hi := lo + block
		if hi > rows {
			hi = rows
		}
		b := buf.Slice(0, hi-lo, 0, cols)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		if err := w.WriteRows(b); err != nil {
			w.Close()
			os.Remove(path)
			return err
		}
	}
	if err := w.Close(); err != nil {
		os.Remove(path)
		return err
	}
	return nil
}
