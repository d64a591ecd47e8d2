package nand

// storeChunkPages is how many page slots the content store allocates at
// once.
const storeChunkPages = 64

// pageStore holds the bytes of programmed pages in page-sized slots carved
// from fixed chunks. A slot freed by a discard or an erase goes on a free
// list and is the next one taken, so a device that overwrites in place of
// what it discards allocates nothing once warm.
type pageStore struct {
	pageSize int
	chunks   [][]byte // storeChunkPages slots each
	carved   int32    // slots carved from chunks so far
	free     []int32  // released slots, ready for reuse
}

// take returns a slot for one page; its bytes are stale until written.
func (s *pageStore) take() int32 {
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		return slot
	}
	if int(s.carved) == len(s.chunks)*storeChunkPages {
		s.chunks = append(s.chunks, make([]byte, storeChunkPages*s.pageSize))
	}
	s.carved++
	return s.carved - 1
}

// page returns the bytes of a slot.
func (s *pageStore) page(slot int32) []byte {
	off := int(slot%storeChunkPages) * s.pageSize
	return s.chunks[slot/storeChunkPages][off : off+s.pageSize : off+s.pageSize]
}

// release returns a slot to the pool.
func (s *pageStore) release(slot int32) { s.free = append(s.free, slot) }
