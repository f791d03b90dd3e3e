// Package arch defines the architectural constants and primitive types of
// the simulated machine: 32-bit words, 32-byte cache/memory blocks, and the
// shared physical address space.
//
// These mirror the machine evaluated in the paper (MIPS R4000 processors,
// 32-byte blocks).
package arch

import "fmt"

// Addr is a physical byte address in the simulated shared address space.
type Addr uint32

// Word is the unit of all loads, stores, and atomic operations (32 bits, as
// on the MIPS R4000).
type Word uint32

// Architectural size constants.
const (
	WordBytes     = 4
	BlockBytes    = 32
	WordsPerBlock = BlockBytes / WordBytes
)

// BlockData is the contents of one memory/cache block.
type BlockData [WordsPerBlock]Word

// BlockBase returns the address of the first byte of the block containing a.
func BlockBase(a Addr) Addr { return a &^ (BlockBytes - 1) }

// BlockNumber returns the index of the block containing a.
func BlockNumber(a Addr) uint32 { return uint32(a) / BlockBytes }

// LocalBlock returns the index of the block containing a among its home
// node's blocks, when blocks interleave across nodes homes by block number:
// the key of the home's per-block state.
func LocalBlock(a Addr, nodes uint32) uint32 { return BlockNumber(a) / nodes }

// WordIndex returns the index within its block of the word containing a.
func WordIndex(a Addr) int { return int(a%BlockBytes) / WordBytes }

// WordAligned reports whether a is word-aligned. All memory operations in
// the simulator require word alignment.
func WordAligned(a Addr) bool { return a%WordBytes == 0 }

// CheckWordAligned panics if a is not word aligned. Misaligned references
// indicate an application bug, the simulated analogue of a MIPS address
// error exception.
func CheckWordAligned(a Addr) {
	if !WordAligned(a) {
		panic(fmt.Sprintf("arch: misaligned word address %#x", uint32(a)))
	}
}
