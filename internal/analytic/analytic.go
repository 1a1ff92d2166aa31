// Package analytic provides closed-form predictions for corners of
// the model where queueing theory gives exact answers. They serve as
// an independent check on the simulator: where a formula exists, the
// measured value must match it.
package analytic

import (
	"math"

	"repro/internal/model"
)

// UpdateCPUDemand returns the long-run CPU utilization of installing
// the full update stream: λu · (xlookup + xupdate) / ips. This is the
// ρu plateau of Fig. 3 (≈ 0.192 at the baseline).
func UpdateCPUDemand(p *model.Params) float64 {
	return p.UpdateRate * p.InstallCost() / p.IPS
}

// PerObjectUpdateRate returns the Poisson refresh rate of a single
// object in the given class.
func PerObjectUpdateRate(p *model.Params, class model.Importance) float64 {
	if class == model.Low {
		if p.NLow == 0 {
			return 0
		}
		return p.UpdateRate * p.PUpdateLow / float64(p.NLow)
	}
	if p.NHigh == 0 {
		return 0
	}
	return p.UpdateRate * (1 - p.PUpdateLow) / float64(p.NHigh)
}

// StaleFractionImmediateInstall returns the steady-state MA stale
// fraction for a class when every update installs immediately on
// arrival (the UF regime). With Poisson per-object refreshes at rate
// μ and exponential network ages of mean ā, a value generated at time
// g expires at g+Δ; the object is stale whenever the time since the
// last *generation* exceeds Δ. The time since the last generation is
// the (stationary) time since the last arrival plus that update's
// age; both exponential, so for ā ≠ 1/μ:
//
//	P(stale) = (μ·ā·e^{-Δ/ā} - e^{-μΔ}) / (μ·ā - 1)
//
// and e^{-μΔ}(1 + μΔ) in the ā → 1/μ limit. For ā = 0 it reduces to
// the intuitive e^{-μΔ}.
func StaleFractionImmediateInstall(p *model.Params, class model.Importance) float64 {
	mu := PerObjectUpdateRate(p, class)
	if mu <= 0 {
		return 1
	}
	delta := p.MaxAgeDelta
	abar := p.MeanUpdateAge
	if abar <= 0 {
		return math.Exp(-mu * delta)
	}
	x := mu * abar
	if math.Abs(x-1) < 1e-9 {
		return math.Exp(-mu*delta) * (1 + mu*delta)
	}
	return (x*math.Exp(-delta/abar) - math.Exp(-mu*delta)) / (x - 1)
}

// SaturationTxnRate returns the transaction arrival rate at which the
// CPU saturates, given that the update stream takes its full demand
// (the UF regime): λt* such that λt* times the mean execution time
// (computation plus view lookups) plus UpdateCPUDemand is 1.
func SaturationTxnRate(p *model.Params) float64 {
	meanExec := p.CompMean + p.ReadsMean*p.XLookup/p.IPS
	if meanExec <= 0 {
		return math.Inf(1)
	}
	return (1 - UpdateCPUDemand(p)) / meanExec
}

// MeanInstallLatencyMM1 returns the M/M/1 sojourn-time approximation
// for an update waiting to install when updates get a dedicated CPU
// share rho (the FC regime): service rate μ = rho·ips/installCost,
// arrival rate λu; W = 1/(μ − λu) for μ > λu, +Inf otherwise. The
// approximation treats install times as exponential; the model's are
// near-deterministic, so this is an upper bound within 2x.
func MeanInstallLatencyMM1(p *model.Params, share float64) float64 {
	if p.InstallCost() <= 0 {
		return 0
	}
	mu := share * p.IPS / p.InstallCost()
	if mu <= p.UpdateRate {
		return math.Inf(1)
	}
	return 1 / (mu - p.UpdateRate)
}
