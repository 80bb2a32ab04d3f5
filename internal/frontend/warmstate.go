package frontend

import (
	"streamfetch/internal/ckpt/wire"
	"streamfetch/internal/isa"
)

// AppendWarmState implements Engine.
func (e *StreamEngine) AppendWarmState(dst []byte) []byte {
	dst = e.pred.AppendState(dst)
	dst = e.builder.AppendState(dst)
	dst = e.specRAS.AppendState(dst)
	return e.retRAS.AppendState(dst)
}

// LoadWarmState implements Engine.
func (e *StreamEngine) LoadWarmState(data []byte) error {
	r := wire.NewReader(data)
	if err := e.pred.LoadState(r); err != nil {
		return err
	}
	if err := e.builder.LoadState(r); err != nil {
		return err
	}
	if err := e.specRAS.LoadState(r); err != nil {
		return err
	}
	if err := e.retRAS.LoadState(r); err != nil {
		return err
	}
	return r.Done()
}

// AppendWarmState implements Engine.
func (e *EV8Engine) AppendWarmState(dst []byte) []byte {
	dst = e.gskew.AppendState(dst)
	dst = e.btb.AppendState(dst)
	dst = e.specRAS.AppendState(dst)
	return e.retRAS.AppendState(dst)
}

// LoadWarmState implements Engine.
func (e *EV8Engine) LoadWarmState(data []byte) error {
	r := wire.NewReader(data)
	if err := e.gskew.LoadState(r); err != nil {
		return err
	}
	if err := e.btb.LoadState(r); err != nil {
		return err
	}
	if err := e.specRAS.LoadState(r); err != nil {
		return err
	}
	if err := e.retRAS.LoadState(r); err != nil {
		return err
	}
	return r.Done()
}

// AppendWarmState implements Engine.
func (e *FTBEngine) AppendWarmState(dst []byte) []byte {
	dst = e.ftb.AppendState(dst)
	dst = e.perc.AppendState(dst)
	dst = e.specRAS.AppendState(dst)
	dst = e.retRAS.AppendState(dst)
	return wire.AppendU64(dst, uint64(e.commitBlockStart))
}

// LoadWarmState implements Engine.
func (e *FTBEngine) LoadWarmState(data []byte) error {
	r := wire.NewReader(data)
	if err := e.ftb.LoadState(r); err != nil {
		return err
	}
	if err := e.perc.LoadState(r); err != nil {
		return err
	}
	if err := e.specRAS.LoadState(r); err != nil {
		return err
	}
	if err := e.retRAS.LoadState(r); err != nil {
		return err
	}
	cbs := isa.Addr(r.U64())
	if err := r.Done(); err != nil {
		return err
	}
	if !cbs.Valid() {
		return wire.ErrMalformed
	}
	e.commitBlockStart = cbs
	return nil
}

// AppendWarmState implements Engine.
func (e *TraceCacheEngine) AppendWarmState(dst []byte) []byte {
	dst = e.pred.AppendState(dst)
	dst = e.store.AppendState(dst)
	dst = e.fill.AppendState(dst)
	dst = e.btb.AppendState(dst)
	dst = e.specRAS.AppendState(dst)
	return e.retRAS.AppendState(dst)
}

// LoadWarmState implements Engine.
func (e *TraceCacheEngine) LoadWarmState(data []byte) error {
	r := wire.NewReader(data)
	if err := e.pred.LoadState(r); err != nil {
		return err
	}
	if err := e.store.LoadState(r); err != nil {
		return err
	}
	if err := e.fill.LoadState(r); err != nil {
		return err
	}
	if err := e.btb.LoadState(r); err != nil {
		return err
	}
	if err := e.specRAS.LoadState(r); err != nil {
		return err
	}
	if err := e.retRAS.LoadState(r); err != nil {
		return err
	}
	return r.Done()
}
