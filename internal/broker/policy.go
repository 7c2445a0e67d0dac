package broker

import (
	"fmt"
	"time"

	"cellbricks/internal/qos"
	"cellbricks/internal/sap"
)

// The paper leaves broker admission policy "open to innovation"; this
// file provides a small combinator library for building one: each Rule
// either vetoes an attachment or adjusts the QoS selection, and Chain
// folds rules left to right over the broker's base selection.

// Decision carries the evolving QoS selection through a rule chain.
type Decision struct {
	IDU   string
	IDT   string
	Terms sap.ServiceTerms
	QoS   qos.Params
}

// Rule inspects/adjusts a decision or vetoes it with an error.
type Rule func(d *Decision) error

// Chain builds a sap.Authorizer from a base QoS selection and rules.
// The final selection is clamped to the bTelco's capability.
func Chain(base qos.Params, rules ...Rule) sap.Authorizer {
	return sap.AuthorizerFunc(func(idU, idT string, terms sap.ServiceTerms) (qos.Params, error) {
		d := &Decision{IDU: idU, IDT: idT, Terms: terms, QoS: base}
		for _, r := range rules {
			if err := r(d); err != nil {
				return qos.Params{}, err
			}
		}
		return d.QoS.Clamp(terms.Cap), nil
	})
}

// PriceCap vetoes bTelcos whose advertised price exceeds max.
func PriceCap(max float64) Rule {
	return func(d *Decision) error {
		if d.Terms.PricePerGB > max {
			return fmt.Errorf("price %.2f/GB exceeds cap %.2f", d.Terms.PricePerGB, max)
		}
		return nil
	}
}

// RequireLI vetoes bTelcos that cannot perform lawful intercept (for
// jurisdictions where brokers must guarantee it).
func RequireLI() Rule {
	return func(d *Decision) error {
		if !d.Terms.LawfulIntercept {
			return fmt.Errorf("bTelco %s does not support lawful intercept", d.IDT)
		}
		return nil
	}
}

// AllowTelcos restricts admission to an explicit set (a broker running a
// curated marketplace).
func AllowTelcos(ids ...string) Rule {
	set := make(map[string]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return func(d *Decision) error {
		if !set[d.IDT] {
			return fmt.Errorf("bTelco %s not in the broker's allow list", d.IDT)
		}
		return nil
	}
}

// BlockTelcos vetoes an explicit set.
func BlockTelcos(ids ...string) Rule {
	set := make(map[string]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return func(d *Decision) error {
		if set[d.IDT] {
			return fmt.Errorf("bTelco %s is blocked by broker policy", d.IDT)
		}
		return nil
	}
}

// TierByPrice trades QoS for price: expensive bTelcos get used, but only
// for a throttled best-effort tier; cheap ones get the full selection.
func TierByPrice(threshold float64, throttled qos.Params) Rule {
	return func(d *Decision) error {
		if d.Terms.PricePerGB > threshold {
			d.QoS = throttled
		}
		return nil
	}
}

// OffPeakBoost raises the AMBR outside busy hours (the clock is injected
// for testability and virtual-time runs).
func OffPeakBoost(now func() time.Time, factor float64) Rule {
	return func(d *Decision) error {
		h := now().Hour()
		if h < 7 || h >= 23 {
			d.QoS.DLAmbrBps = uint64(float64(d.QoS.DLAmbrBps) * factor)
			d.QoS.ULAmbrBps = uint64(float64(d.QoS.ULAmbrBps) * factor)
		}
		return nil
	}
}

// PerUserQoS overrides the selection for specific users (e.g. premium
// subscribers).
func PerUserQoS(overrides map[string]qos.Params) Rule {
	return func(d *Decision) error {
		if p, ok := overrides[d.IDU]; ok {
			d.QoS = p
		}
		return nil
	}
}

// SetPolicy swaps the broker's admission rules at run time (policy is the
// broker's to innovate on; the built-in reputation/suspect/price gates
// still apply first).
func (b *Brokerd) SetPolicy(base qos.Params, rules ...Rule) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.policy = Chain(base, rules...)
}
