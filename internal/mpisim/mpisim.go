// Package mpisim is a small MPI-like message-passing runtime over
// goroutines and channels. It exists so the Krak stand-in application
// (internal/hydro) can execute with the same communication structure the
// paper describes — asynchronous sends, blocking receives, and collective
// reductions acting as global synchronization points — inside a single
// process, one goroutine per rank.
//
// Collectives are implemented over the point-to-point layer with binomial
// trees, mirroring the binary-tree cost model of §4.3.
package mpisim

import (
	"fmt"
	"sync"
)

// packet is one in-flight message.
type packet struct {
	src, tag int
	data     []float64
}

// World owns the mailboxes of a fixed-size rank group, plus a shared pool
// of payload buffers: sends draw their copy from the pool and RecvInto
// returns drained payloads to it, so steady-state point-to-point traffic
// recycles memory instead of allocating per message.
type World struct {
	size  int
	boxes []*mailbox
	bufs  sync.Pool // of []float64, stored len 0
}

// getBuf returns a payload buffer of length n, reusing pooled capacity.
func (w *World) getBuf(n int) []float64 {
	if v := w.bufs.Get(); v != nil {
		if b := v.([]float64); cap(b) >= n {
			return b[:n]
		}
	}
	return make([]float64, n)
}

// putBuf recycles a payload buffer whose contents are no longer referenced.
func (w *World) putBuf(b []float64) {
	if cap(b) > 0 {
		w.bufs.Put(b[:0]) //nolint:staticcheck // slice headers are what the pool stores
	}
}

// mailbox holds a rank's incoming messages with (src, tag) matching.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []packet
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(p packet) {
	m.mu.Lock()
	m.pending = append(m.pending, p)
	m.cond.Signal()
	m.mu.Unlock()
}

func (m *mailbox) get(src, tag int) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for i, p := range m.pending {
			if p.src == src && p.tag == tag {
				m.pending = append(m.pending[:i], m.pending[i+1:]...)
				return p.data
			}
		}
		m.cond.Wait()
	}
}

// NewWorld creates a world of the given size.
func NewWorld(size int) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mpisim: invalid world size %d", size)
	}
	w := &World{size: size, boxes: make([]*mailbox, size)}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	return w, nil
}

// Comm is one rank's endpoint.
type Comm struct {
	world *World
	rank  int
	// acc1/rbuf1 are the scalar-collective scratch buffers; a Comm serves
	// one rank goroutine, so they need no locking.
	acc1, rbuf1 [1]float64
}

// Comm returns the endpoint for a rank.
func (w *World) Comm(rank int) (*Comm, error) {
	if rank < 0 || rank >= w.size {
		return nil, fmt.Errorf("mpisim: rank %d out of range 0..%d", rank, w.size-1)
	}
	return &Comm{world: w, rank: rank}, nil
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Send delivers data to dst with a tag. Sends never block (asynchronous
// semantics: the payload is copied into the destination mailbox).
func (c *Comm) Send(dst, tag int, data []float64) error {
	if dst < 0 || dst >= c.world.size {
		return fmt.Errorf("mpisim: send to invalid rank %d", dst)
	}
	if dst == c.rank {
		return fmt.Errorf("mpisim: send to self (rank %d)", c.rank)
	}
	cp := c.world.getBuf(len(data))
	copy(cp, data)
	c.world.boxes[dst].put(packet{src: c.rank, tag: tag, data: cp})
	return nil
}

// Recv blocks until a message with the given source and tag arrives. The
// returned slice is owned by the caller and is never recycled.
func (c *Comm) Recv(src, tag int) ([]float64, error) {
	if src < 0 || src >= c.world.size {
		return nil, fmt.Errorf("mpisim: recv from invalid rank %d", src)
	}
	if src == c.rank {
		return nil, fmt.Errorf("mpisim: recv from self (rank %d)", c.rank)
	}
	return c.world.boxes[c.rank].get(src, tag), nil
}

// RecvInto blocks like Recv but copies the payload into dst (grown if its
// capacity is short) and recycles the transport buffer into the world's
// pool. It returns dst resized to the payload length. The hot exchange
// paths use this so steady-state traffic is allocation-free.
func (c *Comm) RecvInto(src, tag int, dst []float64) ([]float64, error) {
	if src < 0 || src >= c.world.size {
		return nil, fmt.Errorf("mpisim: recv from invalid rank %d", src)
	}
	if src == c.rank {
		return nil, fmt.Errorf("mpisim: recv from self (rank %d)", c.rank)
	}
	data := c.world.boxes[c.rank].get(src, tag)
	if cap(dst) < len(data) {
		dst = make([]float64, len(data))
	} else {
		dst = dst[:len(data)]
	}
	copy(dst, data)
	c.world.putBuf(data)
	return dst, nil
}

// Batch posts asynchronous sends. Sends in this runtime buffer eagerly, so
// each completes as it is posted; the batch exists so application code can
// follow the paper's structure — "asynchronous sends to each neighbor are
// posted, followed by operations to ensure the send operations have
// completed, and finally, blocking receives are posted". Waitall reports
// the first failed send and resets the batch for the next exchange.
type Batch struct{ err error }

// Isend posts an asynchronous send into the batch.
func (b *Batch) Isend(c *Comm, dst, tag int, data []float64) {
	if err := c.Send(dst, tag, data); err != nil && b.err == nil {
		b.err = err
	}
}

// Waitall completes every posted send, returns the first error, and
// resets the batch.
func (b *Batch) Waitall() error {
	err := b.err
	b.err = nil
	return err
}

// Internal collective tags live far above user space.
const (
	tagReduce = 1 << 28
	tagBcast  = 1 << 29
	tagGather = 1 << 27
)

// reduceOp combines two equal-length vectors elementwise.
type reduceOp func(dst, src []float64)

func opSum(dst, src []float64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

func opMin(dst, src []float64) {
	for i := range dst {
		if src[i] < dst[i] {
			dst[i] = src[i]
		}
	}
}

func opMax(dst, src []float64) {
	for i := range dst {
		if src[i] > dst[i] {
			dst[i] = src[i]
		}
	}
}

// bcastFrom0 broadcasts rank 0's value down the binomial tree.
func (c *Comm) bcastFrom0(vals []float64, epoch int) ([]float64, error) {
	size := c.world.size
	// Find the highest bit of the world.
	top := 1
	for top < size {
		top <<= 1
	}
	if c.rank != 0 {
		// Receive from the parent: clear the lowest set bit.
		parent := c.rank &^ (c.rank & -c.rank)
		got, err := c.Recv(parent, tagBcast+epoch)
		if err != nil {
			return nil, err
		}
		vals = got
	}
	// Forward to children: set bits below the lowest set bit (rank 0:
	// all bits).
	low := c.rank & -c.rank
	if c.rank == 0 {
		low = top
	}
	for bit := low >> 1; bit >= 1; bit >>= 1 {
		child := c.rank | bit
		if child < size && child != c.rank {
			if err := c.Send(child, tagBcast+epoch, vals); err != nil {
				return nil, err
			}
		}
	}
	return vals, nil
}

// allreduceScalar runs a binomial-tree reduce of one value to rank 0
// followed by a broadcast. epoch distinguishes concurrent collectives
// issued by well-synchronized callers (each collective call site must be
// reached by every rank in the same order, as in MPI). The accumulator and
// receive buffer live on the Comm, so the ~15 scalar reductions the hydro
// exchanger makes every timestep allocate nothing.
func (c *Comm) allreduceScalar(v float64, op reduceOp, epoch int) (float64, error) {
	size := c.world.size
	c.acc1[0] = v
	acc := c.acc1[:]
	for bit := 1; bit < size; bit <<= 1 {
		if c.rank&bit != 0 {
			dst := c.rank &^ bit
			if err := c.Send(dst, tagReduce+epoch, acc); err != nil {
				return 0, err
			}
			break
		}
		src := c.rank | bit
		if src < size {
			got, err := c.RecvInto(src, tagReduce+epoch, c.rbuf1[:])
			if err != nil {
				return 0, err
			}
			if len(got) != 1 {
				return 0, fmt.Errorf("mpisim: allreduce length mismatch %d vs 1", len(got))
			}
			op(acc, got)
		}
	}
	// Scalar broadcast of rank 0's accumulator down the binomial tree.
	top := 1
	for top < size {
		top <<= 1
	}
	if c.rank != 0 {
		parent := c.rank &^ (c.rank & -c.rank)
		got, err := c.RecvInto(parent, tagBcast+epoch, acc)
		if err != nil {
			return 0, err
		}
		if len(got) != 1 {
			return 0, fmt.Errorf("mpisim: bcast length mismatch %d vs 1", len(got))
		}
	}
	low := c.rank & -c.rank
	if c.rank == 0 {
		low = top
	}
	for bit := low >> 1; bit >= 1; bit >>= 1 {
		child := c.rank | bit
		if child < size && child != c.rank {
			if err := c.Send(child, tagBcast+epoch, acc); err != nil {
				return 0, err
			}
		}
	}
	return acc[0], nil
}

// AllreduceSumScalar returns the sum of v across ranks. The epoch must be
// unique per collective call site within a phase (any small non-negative
// integer reused consistently by all ranks).
func (c *Comm) AllreduceSumScalar(v float64, epoch int) (float64, error) {
	return c.allreduceScalar(v, opSum, 3*epoch)
}

// AllreduceMinScalar returns the minimum of v across ranks.
func (c *Comm) AllreduceMinScalar(v float64, epoch int) (float64, error) {
	return c.allreduceScalar(v, opMin, 3*epoch+1)
}

// AllreduceMaxScalar returns the maximum of v across ranks.
func (c *Comm) AllreduceMaxScalar(v float64, epoch int) (float64, error) {
	return c.allreduceScalar(v, opMax, 3*epoch+2)
}

// Bcast broadcasts root's data to every rank (binomial tree rooted at 0;
// non-zero roots relay through 0).
func (c *Comm) Bcast(root int, data []float64, epoch int) ([]float64, error) {
	if root < 0 || root >= c.world.size {
		return nil, fmt.Errorf("mpisim: bcast from invalid root %d", root)
	}
	ep := tagGather + 2*epoch
	if root != 0 {
		if c.rank == root {
			if err := c.Send(0, ep, data); err != nil {
				return nil, err
			}
		}
		if c.rank == 0 {
			got, err := c.Recv(root, ep)
			if err != nil {
				return nil, err
			}
			data = got
		}
	}
	return c.bcastFrom0(data, tagGather-tagBcast+2*epoch+1)
}

// Gather collects every rank's equal-length contribution at the root,
// ordered by rank. Non-root ranks receive nil.
func (c *Comm) Gather(root int, data []float64, epoch int) ([][]float64, error) {
	if root < 0 || root >= c.world.size {
		return nil, fmt.Errorf("mpisim: gather to invalid root %d", root)
	}
	ep := tagGather + tagReduce + epoch
	if c.rank != root {
		return nil, c.Send(root, ep, data)
	}
	out := make([][]float64, c.world.size)
	cp := make([]float64, len(data))
	copy(cp, data)
	out[c.rank] = cp
	for r := 0; r < c.world.size; r++ {
		if r == root {
			continue
		}
		got, err := c.Recv(r, ep)
		if err != nil {
			return nil, err
		}
		out[r] = got
	}
	return out, nil
}

// Run spawns size ranks, each executing body, and waits for completion.
// The first non-nil error is returned.
//
//krakcheck:ignore ctxflow bounded fork-join that always joins before returning; rank bodies exchange via in-memory channels and have no cancellation points to thread ctx into
func Run(size int, body func(c *Comm) error) error {
	w, err := NewWorld(size)
	if err != nil {
		return err
	}
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		comm, err := w.Comm(r)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(rank int, c *Comm) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					errs[rank] = fmt.Errorf("mpisim: rank %d panicked: %v", rank, rec)
				}
			}()
			errs[rank] = body(c)
		}(r, comm)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
