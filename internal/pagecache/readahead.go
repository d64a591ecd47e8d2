package pagecache

// Readahead is a per-file read-ahead state machine modeled on the on-demand
// algorithm of Linux 5.4, the paper's kernel: every miss opens at least the
// initial window (get_init_ra_size gives 4 pages for a 1-page read), and
// detected sequential streams double the window up to the 128 KiB / 32-page
// default cap.
//
// This is the mechanism §2.1 blames for fine-grained reads polluting memory
// and inflating traffic — a random 128 B read drags in 16 KiB — and the
// block I/O baseline reproduces it faithfully.
type Readahead struct {
	initial int // window opened when sequentiality first detected
	max     int // window cap

	lastIndex uint64
	haveLast  bool
	window    int // current window; 0 while the stream looks random
}

// NewReadahead creates a state machine with the given initial and maximum
// windows (in pages).
func NewReadahead(initial, max int) *Readahead {
	if initial < 1 {
		initial = 1
	}
	if max < initial {
		max = initial
	}
	return &Readahead{initial: initial, max: max}
}

// OnMiss reports how many pages to fetch starting at index, given that
// index missed the cache. The demanded page is always included (count >= 1);
// a random miss still opens the initial window, as the 5.4 kernel does.
func (r *Readahead) OnMiss(index uint64) int {
	sequential := r.haveLast && index == r.lastIndex+1
	r.haveLast = true
	r.lastIndex = index

	if !sequential {
		r.window = r.initial
		return r.window
	}
	if r.window == 0 {
		r.window = r.initial
	} else {
		r.window *= 2
		if r.window > r.max {
			r.window = r.max
		}
	}
	return r.window
}

// OnHit informs the state machine of a cache hit at index, so a sequential
// stream that is already resident keeps its window warm.
func (r *Readahead) OnHit(index uint64) {
	if r.haveLast && index == r.lastIndex+1 {
		r.lastIndex = index
		return
	}
	r.haveLast = true
	r.lastIndex = index
	r.window = 0
}

// Window exposes the current window size (telemetry).
func (r *Readahead) Window() int { return r.window }
