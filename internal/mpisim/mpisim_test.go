package mpisim

import (
	"sync"
	"testing"
)

func TestWorldValidation(t *testing.T) {
	if _, err := NewWorld(0); err == nil {
		t.Fatal("size 0 accepted")
	}
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Comm(2); err == nil {
		t.Fatal("rank out of range accepted")
	}
	c, err := w.Comm(1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rank() != 1 || c.world.size != 2 {
		t.Fatalf("rank/size = %d/%d", c.Rank(), c.world.size)
	}
}

func TestSendRecvBasic(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, []float64{1, 2, 3})
		}
		got, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if len(got) != 3 || got[2] != 3 {
			t.Errorf("got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvErrors(t *testing.T) {
	w, _ := NewWorld(2)
	c, _ := w.Comm(0)
	if err := c.Send(5, 0, nil); err == nil {
		t.Fatal("send to invalid rank accepted")
	}
	if err := c.Send(0, 0, nil); err == nil {
		t.Fatal("send to self accepted")
	}
	if _, err := c.Recv(5, 0); err == nil {
		t.Fatal("recv from invalid rank accepted")
	}
	if _, err := c.Recv(0, 0); err == nil {
		t.Fatal("recv from self accepted")
	}
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, []float64{1}); err != nil {
				return err
			}
			return c.Send(1, 2, []float64{2})
		}
		// Receive tag 2 first even though tag 1 arrived first.
		got2, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		got1, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if got1[0] != 1 || got2[0] != 2 {
			t.Errorf("tag matching broken: %v %v", got1, got2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			data := []float64{42}
			if err := c.Send(1, 0, data); err != nil {
				return err
			}
			data[0] = 99 // must not affect the receiver
			return nil
		}
		got, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if got[0] != 42 {
			t.Errorf("payload aliased: %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func allreduceSizes() []int { return []int{1, 2, 3, 4, 5, 7, 8, 16} }

func TestAllreduceSum(t *testing.T) {
	for _, size := range allreduceSizes() {
		var mu sync.Mutex
		results := map[int]float64{}
		err := Run(size, func(c *Comm) error {
			out, err := c.AllreduceSumScalar(float64(c.Rank()+1), 0)
			if err != nil {
				return err
			}
			mu.Lock()
			results[c.Rank()] = out
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		want := float64(size*(size+1)) / 2
		for r, v := range results {
			if v != want {
				t.Fatalf("size %d rank %d: sum = %v, want %v", size, r, v, want)
			}
		}
	}
}

func TestAllreduceMinMax(t *testing.T) {
	const size = 6
	err := Run(size, func(c *Comm) error {
		mn, err := c.AllreduceMinScalar(float64(c.Rank()), 1)
		if err != nil {
			return err
		}
		mx, err := c.AllreduceMaxScalar(float64(c.Rank()), 2)
		if err != nil {
			return err
		}
		if mn != 0 {
			t.Errorf("min = %v", mn)
		}
		if mx != size-1 {
			t.Errorf("max = %v", mx)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastFromEveryRoot(t *testing.T) {
	const size = 5
	for root := 0; root < size; root++ {
		err := Run(size, func(c *Comm) error {
			var data []float64
			if c.Rank() == root {
				data = []float64{float64(100 + root)}
			} else {
				data = []float64{-1}
			}
			got, err := c.Bcast(root, data, root)
			if err != nil {
				return err
			}
			if got[0] != float64(100+root) {
				t.Errorf("root %d rank %d: got %v", root, c.Rank(), got[0])
			}
			return nil
		})
		if err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
	}
}

func TestGather(t *testing.T) {
	const size = 4
	err := Run(size, func(c *Comm) error {
		rows, err := c.Gather(2, []float64{float64(c.Rank() * 10)}, 0)
		if err != nil {
			return err
		}
		if c.Rank() != 2 {
			if rows != nil {
				t.Errorf("non-root got rows")
			}
			return nil
		}
		for r := 0; r < size; r++ {
			if rows[r][0] != float64(r*10) {
				t.Errorf("gather row %d = %v", r, rows[r])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierAndSequences(t *testing.T) {
	// Back-to-back collectives with the same epoch must not interfere
	// (FIFO matching within (src, tag)).
	const size = 4
	err := Run(size, func(c *Comm) error {
		for i := 0; i < 10; i++ {
			out, err := c.AllreduceSumScalar(1, 0)
			if err != nil {
				return err
			}
			if out != size {
				t.Errorf("iteration %d: sum = %v", i, out)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			// Avoid deadlock: rank 0 does nothing.
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic not propagated")
	}
}
