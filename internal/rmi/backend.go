package rmi

// The index.Backend face of the single-model RMI path: a static learned
// index (one second-stage regression, exactly the substrate the paper
// poisons) wrapped with a staging area so it can sit in the serving
// scenarios next to the updatable backends. Inserts are staged and served
// by binary search; only an explicit Retrain rebuilds the model over the
// union — the "rebuild on a maintenance window" deployment the paper's
// threat model assumes.

import (
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/regression"
)

// NewSingle builds the fanout-1 learned index over the initial keys (at
// least two, else dynamic.ErrTooFew): a manually retrained dynamic.Index
// whose every (re)fit is the line Build(…, Config{Fanout: 1}) fits.
func NewSingle(initial keys.Set) (*dynamic.Index, error) {
	return dynamic.NewWithFit(initial, dynamic.ManualPolicy(), fitSingle)
}

// fitSingle is the fanout-1 RMI's stage-2 model as a CDF trainer: its line
// and, as the loss, its in-sample MSE — SecondStageMSE at fanout 1.
func fitSingle(ks keys.Set) (regression.Model, error) {
	idx, err := Build(ks, Config{Fanout: 1})
	if err != nil {
		return regression.Model{}, err
	}
	m := idx.models[0]
	return regression.Model{Line: m.line, Loss: m.localMSE, N: ks.Len()}, nil
}
