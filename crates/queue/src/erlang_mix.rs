//! The sum-of-Erlang-terms MGF representation and its algebra (Appendix A).
//!
//! Every delay factor in the paper — the upstream approximation of
//! eq. (14), the burst waiting time of eq. (18), the packet-position delay
//! of eq. (34) — has an MGF of the form
//!
//! ```text
//! M(s) = c + Σ_λ Σ_{m=1}^{M_λ} A_{λ,m} · (λ/(λ-s))^m ,    Re λ > 0,
//! ```
//!
//! i.e. an atom of mass `c` at zero plus a weighted sum of (possibly
//! complex-pole) Erlang terms. Appendix A shows this family is closed
//! under products: re-expanding `F·G` in partial fractions turns each
//! pole's coefficients into a discrete convolution with the derivatives of
//! the *other* factor (eq. 43). The paper's own product, eq. (35), has
//! a closed form that [`crate::TotalDelay::new`] builds directly. The
//! inversion is then term-by-term,
//!
//! ```text
//! P(X > x) = Re Σ A_{λ,m} · e^{-λx} · Σ_{i<m} (λx)^i / i! ,
//! ```
//!
//! which is exactly how the paper obtains the tail of the total queueing
//! delay from eq. (35).
//!
//! Every law here is real, so complex poles come in conjugate pairs with
//! conjugate coefficients. A mix stores one block per pair (see
//! [`PoleBlock::pair`]) and adds the partner's share where it sums: twice
//! the real part of a tail, a mean or a real-point value, `conj(b(s̄))`
//! at a complex `s`.

use crate::QueueError;
use fpsping_num::cmp::exact_zero;
use fpsping_num::poly::rising_factorial;
use fpsping_num::Complex64;
use fpsping_obs::Counter;

static BRACKET_SEARCHES: Counter = Counter::new("queue.quantile.bracket.searches");
static BRACKET_STEPS: Counter = Counter::new("queue.quantile.bracket.steps");

/// One pole of an [`ErlangMix`] together with the coefficients of all its
/// multiplicities: `Σ_{m=1}^{M} coeffs[m-1] · (pole/(pole-s))^m`. A view
/// into the mix's flat storage (see [`ErlangMix::blocks`]).
///
/// A block with [`PoleBlock::pair`] set stands for a conjugate pair: the
/// stored member and its mirror, whose pole and coefficients are the
/// conjugates (and whose magnitude companions are the same). The block's
/// own methods evaluate the stored member only; the mix adds the
/// mirror's share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoleBlock<'a> {
    /// The pole location λ; `Re λ > 0` for a proper (decaying) term.
    pub pole: Complex64,
    /// Whether the block also stands for its conjugate mirror (the pole
    /// is then off the real axis); a block with a real pole stands alone.
    pub pair: bool,
    /// `coeffs[m-1]` multiplies the Erlang term of multiplicity `m`.
    pub coeffs: &'a [Complex64],
    /// The magnitude companion of each coefficient: the coefficient
    /// recomputed with every operation of its closed-form construction
    /// taken in absolute value, times a count of the roundings it commits
    /// (`|c|` for a coefficient given as input). `ε` times it bounds the
    /// rounding error the coefficient carries.
    pub magnitudes: &'a [f64],
}

impl PoleBlock<'_> {
    /// How many poles the block stands for: 2 for a pair, 1 otherwise
    /// (always finite). A real quantity the stored member contributes
    /// (the real part of its tail, slope or mean) is that many times the
    /// block's.
    pub fn members(&self) -> f64 {
        if self.pair {
            2.0
        } else {
            1.0
        }
    }

    /// Evaluates the stored member's contribution to the MGF at `s`.
    pub fn eval(&self, s: Complex64) -> Complex64 {
        self.eval_with_magnitude(s).0
    }

    /// [`PoleBlock::eval`] and the magnitude companion of its value,
    /// `Σ_m Ã_m·|λ/(λ-s)|^m` (moduli as `|re| + |im|`).
    #[inline]
    fn eval_with_magnitude(&self, s: Complex64) -> (Complex64, f64) {
        let base = self.base(s);
        let ladder = self.is_ladder();
        let n = self.coeffs.len() as i32;
        let value = if self.closes(base, ladder) {
            self.geometric_sum(base, base.powi(n))
        } else {
            self.term_sum(base)
        };
        let r = l1(base);
        let magnitude = if ladder && (r - 1.0).abs() > 0.2 {
            // Equal companions: the real geometric sum in closed form.
            self.magnitudes[0] * r * (r.powi(n) - 1.0) / (r - 1.0)
        } else {
            let mut pw = 1.0;
            let mut sum = 0.0;
            for &mag in self.magnitudes {
                pw *= r;
                sum += mag * pw;
            }
            sum
        };
        (value, magnitude)
    }

    /// Whether this block is an equal-coefficient ladder of at least six
    /// multiplicities (the uniform K-stage position factor), which
    /// [`PoleBlock::eval`] sums in closed form wherever that is accurate.
    /// A property of the coefficients alone, so a caller evaluating at
    /// many points tests it once.
    pub(crate) fn is_ladder(&self) -> bool {
        self.coeffs.len() >= 6 && self.coeffs.iter().all(|&c| c == self.coeffs[0])
    }

    /// `λ/(λ − s)`, the base every multiplicity is a power of.
    #[inline]
    fn base(&self, s: Complex64) -> Complex64 {
        // Branchless reciprocal: poles and evaluation points are queueing
        // rates / contour points (magnitudes ~1e0–1e6), safely inside
        // `inv_fast`'s range; this sits in the innermost loop of every
        // numerical tail inversion.
        self.pole * (self.pole - s).inv_fast()
    }

    /// Whether a ladder (`ladder`, see [`PoleBlock::is_ladder`]) is
    /// summed in closed form at `base`: only where `|1 − base| > 0.2`,
    /// which keeps the cancellation in the closed form at the ~1 ulp
    /// level of the term-by-term sum (numerical tails amplify transform
    /// noise by ~10^6; a sloppier guard here would show up in the
    /// quantile tolerance).
    #[inline]
    fn closes(&self, base: Complex64, ladder: bool) -> bool {
        ladder && (Complex64::ONE - base).norm_sqr() > 0.04
    }

    /// The ladder `Σ_m c·base^m` as a geometric sum, O(log K) instead of
    /// O(K), given `bn = base^K`.
    #[inline]
    fn geometric_sum(&self, base: Complex64, bn: Complex64) -> Complex64 {
        let one_minus = Complex64::ONE - base;
        self.coeffs[0] * base * (Complex64::ONE - bn) * one_minus.inv_fast()
    }

    /// `Σ_m coeffs[m-1]·base^m`, term by term.
    fn term_sum(&self, base: Complex64) -> Complex64 {
        let mut acc = Complex64::ZERO;
        let mut pw = Complex64::ONE;
        for &c in self.coeffs {
            pw *= base;
            acc += c * pw;
        }
        acc
    }

    /// Adds this block's value at every point to `acc`: `acc[k] +=
    /// self.eval(zs[k])`, bit for bit, or with `mirror` set the mirror
    /// member's, `acc[k] += self.eval(zs[k].conj()).conj()`. `ladder`
    /// must equal [`PoleBlock::is_ladder`].
    ///
    /// The points are first split by how [`PoleBlock::eval`] sums them;
    /// each group then runs one step across all its points at a time
    /// (the powers of the closed form, each coefficient of the
    /// term-by-term sum), so the dependent multiply chains of different
    /// points overlap instead of running back to back.
    fn add_eval_many(&self, ladder: bool, mirror: bool, zs: &[Complex64], acc: &mut [Complex64]) {
        const LANES: usize = 64;
        let member = |v: Complex64| if mirror { v.conj() } else { v };
        for (zc, ac) in zs.chunks(LANES).zip(acc.chunks_mut(LANES)) {
            // Each group's bases, and the lanes they came from.
            let (mut closed, mut closed_lane, mut nc) = ([Complex64::ZERO; LANES], [0; LANES], 0);
            let (mut open, mut open_lane, mut no) = ([Complex64::ZERO; LANES], [0; LANES], 0);
            for (l, &z) in zc.iter().enumerate() {
                let base = self.base(member(z));
                if self.closes(base, ladder) {
                    (closed[nc], closed_lane[nc]) = (base, l);
                    nc += 1;
                } else {
                    (open[no], open_lane[no]) = (base, l);
                    no += 1;
                }
            }
            let mut pow = [Complex64::ZERO; LANES];
            for (p, &b) in pow[..nc].iter_mut().zip(&closed[..nc]) {
                *p = b.powi(self.coeffs.len() as i32);
            }
            for ((&l, &b), &bn) in closed_lane[..nc].iter().zip(&closed[..nc]).zip(&pow[..nc]) {
                ac[l] += member(self.geometric_sum(b, bn));
            }
            let mut sum = [Complex64::ZERO; LANES];
            let mut pw = [Complex64::ONE; LANES];
            for &c in self.coeffs {
                for ((s, p), &b) in sum[..no].iter_mut().zip(&mut pw[..no]).zip(&open[..no]) {
                    *p *= b;
                    *s += c * *p;
                }
            }
            for (&l, &v) in open_lane[..no].iter().zip(&sum[..no]) {
                ac[l] += member(v);
            }
        }
    }

    /// The l-th derivative (w.r.t. `s`) of the stored member at `s`.
    ///
    /// Uses `d^l/ds^l (λ/(λ-s))^m = λ^m (m)_l (λ-s)^{-(m+l)}` with `(m)_l`
    /// the rising factorial.
    pub fn derivative(&self, s: Complex64, l: u32) -> Complex64 {
        let mut acc = Complex64::ZERO;
        for (i, &c) in self.coeffs.iter().enumerate() {
            let m = (i + 1) as u32;
            let lam_pow = self.pole.powi(m as i32);
            let denom = (self.pole - s).powi((m + l) as i32);
            acc += c * lam_pow * rising_factorial(m, l) / denom;
        }
        acc
    }

    /// The stored member's contribution to the tail `P(X > x)` (complex;
    /// the mix takes [`PoleBlock::members`] times its real part).
    ///
    /// The partial exponential sums `P(m) = Σ_{t<m} (λx)^t/t!` for
    /// `m = 1..M` share their prefixes, so one incremental pass computes
    /// all of them in O(M) — the term and sum recurrences are exactly
    /// those of [`fpsping_num::poly::partial_exp_complex`], so every `P(m)` (and therefore
    /// the block tail) is bit-identical to the scratch evaluation the
    /// quantile solvers relied on before.
    pub fn tail(&self, x: f64) -> Complex64 {
        self.tail_terms(x).0
    }

    /// [`PoleBlock::tail`], its derivative in `x`, and the magnitude of
    /// its terms `Σ_m Ã_m·|P(m)·e^{-λx}|` with `Ã_m` the coefficients'
    /// magnitude companions (each modulus taken as `|re| + |im|`, an
    /// upper bound within √2): the sum whose `ε`-multiple bounds the
    /// rounding error of the tail, the coefficients' own included (a
    /// running error bound in Higham's sense). The derivative is
    /// `-λ·e^{-λx}·Σ_m A_m·(λx)^{m-1}/(m-1)!`, since
    /// `d/dx[e^{-λx}·P(m)] = -λ·e^{-λx}·(λx)^{m-1}/(m-1)!`. Each costs
    /// one multiply and one add per term.
    #[inline]
    pub fn tail_terms(&self, x: f64) -> (Complex64, Complex64, f64) {
        let lx = self.pole * x;
        let decay = (-lx).exp();
        let mut acc = Complex64::ZERO;
        let mut slope = Complex64::ZERO;
        let mut magnitude = 0.0;
        // P(1) = 1; P(m+1) = P(m) + term_m with term_m = (λx)^m/m!.
        let mut term = Complex64::ONE;
        let mut psum = Complex64::ONE;
        for (i, (&c, &mag)) in self.coeffs.iter().zip(self.magnitudes).enumerate() {
            if i > 0 {
                term *= lx / i as f64;
                psum += term;
            }
            acc += c * psum;
            slope += c * term;
            magnitude += mag * l1(psum);
        }
        (
            acc * decay,
            -self.pole * slope * decay,
            magnitude * l1(decay),
        )
    }

    /// The stored member's contribution to the mean: `Σ_m A_m · m/λ`
    /// (Erlang(m, λ) mean).
    pub fn mean(&self) -> Complex64 {
        let mut acc = Complex64::ZERO;
        for (i, &c) in self.coeffs.iter().enumerate() {
            acc += c * ((i + 1) as f64);
        }
        acc / self.pole
    }
}

/// An MGF of the Appendix-A family: constant (atom at zero) plus Erlang
/// terms grouped by pole.
///
/// # Examples
///
/// ```
/// use fpsping_queue::ErlangMix;
///
/// // (1-ρ) + ρ·γ/(γ-s): the paper's eq.-14 upstream approximation.
/// let up = ErlangMix::exponential_with_atom(0.6, 0.4, 2000.0);
/// assert!((up.total_mass() - 1.0).abs() < 1e-15);
/// // P(X > x) = ρ·e^{-γx}, inverted term by term:
/// assert!((up.tail(1e-3) - 0.4 * (-2.0f64).exp()).abs() < 1e-15);
/// // An Erlang(3, 500) component has a later 99.999 % quantile:
/// let pos = ErlangMix::single_real_pole(0.0, 500.0, vec![0.0, 0.0, 1.0]);
/// assert!(pos.quantile(0.99999) > up.quantile(0.99999));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ErlangMix {
    /// Mass of the atom at zero (`P(X = 0)` for a proper delay law).
    pub constant: f64,
    /// The pole locations, pairwise distinct, one per block (a pair's
    /// stored member).
    poles: Vec<Complex64>,
    /// Where each block's coefficients end, and whether it is a pair.
    ends: Vec<BlockEnd>,
    /// Every pole's coefficients, pole after pole, multiplicity 1 first.
    coeffs: Vec<Complex64>,
    /// The magnitude companion of each coefficient (see
    /// [`PoleBlock::magnitudes`]).
    magnitudes: Vec<f64>,
}

/// The end of a block in an [`ErlangMix`]'s flat buffers.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BlockEnd {
    /// One past the block's last coefficient in `coeffs`.
    end: usize,
    /// Whether the block stands for a conjugate pair ([`PoleBlock::pair`]).
    pair: bool,
}

/// `|re| + |im|`: the modulus within a factor √2, from above, without a
/// square root.
#[inline]
pub(crate) fn l1(z: Complex64) -> f64 {
    z.re.abs() + z.im.abs()
}

/// Relative tolerance under which two poles collide
/// ([`ErlangMix::collide`]): the eq.-(35) expansion refuses a cell with
/// such a pair, and the cell inverts.
const POLE_COLLISION_RTOL: f64 = 1e-7;

/// Inverts a decreasing tail: the root of `tail(x) = target` that Brent
/// (to `tol`, at most 300 iterations) finds on the canonical bracket
/// `[scale·2ⁿ⁻¹, scale·2ⁿ]`, `n ∈ [0, 200]` minimal with
/// `tail(scale·2ⁿ) ≤ target` (from 0 when `n = 0`). Every quantile method
/// of the crate solves through it; the caller answers `tail(0) ≤ target`
/// (quantile 0) before calling.
///
/// The bracket starts where the tail is known to be above the target,
/// not at 0: a tail that is rounding noise at small `x` (an expansion
/// whose terms cancel there) can cross the target far below the
/// quantile, and Brent on `[0, scale·2ⁿ]` may stop on that crossing.
/// Where `tail(scale·2ⁿ⁻¹)` is not finite the bracket starts at 0.
///
/// A valid `hint` (a nearby quantile) only changes *where the search
/// starts*: the walk down/up still lands on the minimal satisfying `n`,
/// so hinted and cold callers obtain the exact same bracket — and
/// therefore bit-identical roots. Doubling a finite positive float is
/// exact, so `scale·2ⁿ` is the same value however it is reached.
///
/// A tail that is still above `target` (or NaN) at `scale·2²⁰⁰` has no
/// bracket to solve on — rounding noise, not a distribution — and is
/// refused, as is a Brent solve that does not converge.
pub fn invert_tail(
    tail: impl Fn(f64) -> f64,
    target: f64,
    scale: f64,
    hint: Option<f64>,
    tol: f64,
) -> Result<f64, QueueError> {
    const MAX_DOUBLINGS: i32 = 200;
    BRACKET_SEARCHES.incr();
    let at = |n: i32| scale * 2f64.powi(n);
    let mut n = match hint {
        Some(h) if h.is_finite() && h > 0.0 => {
            ((h / scale).log2().ceil()).clamp(0.0, MAX_DOUBLINGS as f64) as i32
        }
        _ => 0,
    };
    // The tail at scale·2ⁿ⁻¹ once the search has read it there.
    let mut below = None;
    let mut value = tail(at(n));
    if value <= target {
        while n > 0 {
            let previous = tail(at(n - 1));
            if previous > target || previous.is_nan() {
                below = Some(previous);
                break;
            }
            n -= 1;
            BRACKET_STEPS.incr();
        }
    } else {
        while value > target || value.is_nan() {
            if n == MAX_DOUBLINGS {
                return Err(QueueError::SolveFailure {
                    what: "quantile bracket search never crossed the target",
                });
            }
            below = Some(value);
            n += 1;
            BRACKET_STEPS.incr();
            value = tail(at(n));
        }
    }
    let lo = match below {
        Some(v) if v.is_finite() => at(n - 1),
        _ => 0.0,
    };
    fpsping_num::roots::brent(|x| tail(x) - target, lo, at(n), tol, 300)
        .map(|r| r.root)
        .map_err(|_| QueueError::SolveFailure {
            what: "quantile Brent solve",
        })
}

/// Golden-section minimization of a unimodal-ish function on `(a, b)`:
/// `iters` steps, or fewer once the interval is below `tol` relative to
/// its ends (`tol = 0` runs them all); returns `(argmin, min)` at the
/// midpoint of the last interval.
pub(crate) fn golden_min(
    f: impl Fn(f64) -> f64,
    a: f64,
    b: f64,
    tol: f64,
    iters: usize,
) -> (f64, f64) {
    const INV_PHI: f64 = 0.618_033_988_749_894_8;
    let (mut a, mut b) = (a, b);
    let mut c = b - INV_PHI * (b - a);
    let mut d = a + INV_PHI * (b - a);
    let (mut fc, mut fd) = (f(c), f(d));
    for _ in 0..iters {
        if (b - a).abs() < tol * (a.abs() + b.abs()).max(1.0) {
            break;
        }
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - INV_PHI * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + INV_PHI * (b - a);
            fd = f(d);
        }
    }
    let x = 0.5 * (a + b);
    (x, f(x))
}

impl ErlangMix {
    /// The MGF of the constant 0 (unit mass at the origin).
    pub fn unit() -> Self {
        Self::atom(1.0)
    }

    /// A pure atom of mass `constant` at zero, no poles yet (see
    /// [`ErlangMix::with_pole`]).
    pub fn atom(constant: f64) -> Self {
        Self {
            constant,
            ..Self::default()
        }
    }

    /// An empty mix with room for `poles` poles and `coeffs`
    /// coefficients, so that pushing them allocates nothing more.
    pub(crate) fn with_capacity(constant: f64, poles: usize, coeffs: usize) -> Self {
        Self {
            constant,
            poles: Vec::with_capacity(poles),
            ends: Vec::with_capacity(poles),
            coeffs: Vec::with_capacity(coeffs),
            magnitudes: Vec::with_capacity(coeffs),
        }
    }

    /// This mix plus one more pole block `Σ_m coeffs[m-1]·(pole/(pole-s))^m`;
    /// a pole off the real axis stands for the conjugate pair (the mirror
    /// `Σ_m conj(coeffs[m-1])·(λ̄/(λ̄-s))^m` is implied, see
    /// [`PoleBlock::pair`]). The pole must differ from every pole already
    /// present, and from their mirrors.
    pub fn with_pole(mut self, pole: Complex64, coeffs: &[Complex64]) -> Self {
        self.coeffs.extend_from_slice(coeffs);
        self.magnitudes.extend(coeffs.iter().map(|&c| l1(c)));
        self.push_pole(pole, !exact_zero(pole.im));
        self
    }

    /// Closes a block: `pole` owns the coefficients pushed since the
    /// previous block, with its mirror if `pair`.
    fn push_pole(&mut self, pole: Complex64, pair: bool) {
        self.poles.push(pole);
        self.ends.push(BlockEnd {
            end: self.coeffs.len(),
            pair,
        });
    }

    /// `constant + Σ_j weight_j·pole_j/(pole_j − s)` over `(pole, weight,
    /// pair)` terms: simple poles only, each with one coefficient and its
    /// mirror where `pair` is set (the D/E_K/1 burst wait's shape). The
    /// caller says which terms are pairs; a term that is not must have a
    /// real pole.
    pub(crate) fn simple_poles(
        constant: f64,
        terms: impl ExactSizeIterator<Item = (Complex64, Complex64, bool)>,
    ) -> Self {
        let n = terms.len();
        let mut mix = Self::with_capacity(constant, n, n);
        for (pole, weight, pair) in terms {
            mix.push_simple(pole, weight, l1(weight), pair);
        }
        mix
    }

    /// Appends the simple-pole block `weight·pole/(pole − s)` with the
    /// given magnitude companion, standing for its mirror too where
    /// `pair` is set (a block that is not a pair must have a real pole).
    pub(crate) fn push_simple(
        &mut self,
        pole: Complex64,
        weight: Complex64,
        magnitude: f64,
        pair: bool,
    ) {
        debug_assert!(pair || exact_zero(pole.im), "a lone pole must be real");
        self.coeffs.push(weight);
        self.magnitudes.push(magnitude);
        self.push_pole(pole, pair);
    }

    /// Appends the block `Σ_m coeffs[m-1]·(pole/(pole − s))^m` of a real
    /// pole, each coefficient given with its magnitude companion.
    pub(crate) fn push_real_block(&mut self, pole: f64, coeffs: impl Iterator<Item = (f64, f64)>) {
        for (c, magnitude) in coeffs {
            self.coeffs.push(Complex64::from_real(c));
            self.magnitudes.push(magnitude);
        }
        self.push_pole(Complex64::from_real(pole), false);
    }

    /// A single real-pole mix `c + Σ_m A_m (λ/(λ-s))^m`.
    pub fn single_real_pole(constant: f64, pole: f64, coeffs: Vec<f64>) -> Self {
        assert!(pole > 0.0, "single_real_pole: pole must be positive");
        Self {
            constant,
            poles: vec![Complex64::from_real(pole)],
            ends: vec![BlockEnd {
                end: coeffs.len(),
                pair: false,
            }],
            magnitudes: coeffs.iter().map(|c| c.abs()).collect(),
            coeffs: coeffs.into_iter().map(Complex64::from_real).collect(),
        }
    }

    /// The pole blocks in order, one per real pole or conjugate pair;
    /// poles are pairwise distinct.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = PoleBlock<'_>> + Clone + '_ {
        self.poles.iter().enumerate().map(move |(i, &pole)| {
            let start = if i == 0 { 0 } else { self.ends[i - 1].end };
            let BlockEnd { end, pair } = self.ends[i];
            PoleBlock {
                pole,
                pair,
                coeffs: &self.coeffs[start..end],
                magnitudes: &self.magnitudes[start..end],
            }
        })
    }

    /// The stored pole locations, one per block.
    pub(crate) fn poles(&self) -> &[Complex64] {
        &self.poles
    }

    /// The paper's eq. (14) shape: `(1-ρ) + ρ·γ/(γ-s)`.
    pub fn exponential_with_atom(atom: f64, weight: f64, rate: f64) -> Self {
        assert!(rate > 0.0, "exponential_with_atom: rate must be positive");
        Self::atom(atom).with_pole(Complex64::from_real(rate), &[Complex64::from_real(weight)])
    }

    /// Evaluates the MGF at complex `s`: each block's stored member at
    /// `s`, then a pair's mirror, `conj(b(s̄))`.
    pub fn eval(&self, s: Complex64) -> Complex64 {
        let mut acc = Complex64::from_real(self.constant);
        for b in self.blocks() {
            acc += b.eval(s);
            if b.pair {
                acc += b.eval(s.conj()).conj();
            }
        }
        acc
    }

    /// The MGF at `s` with its magnitude companion, each block's value and
    /// companion summed as in [`ErlangMix::eval`]; at a real `s` a pair
    /// adds twice its stored member's real part (its mirror's value is
    /// the conjugate there).
    pub(crate) fn eval_with_magnitude(&self, s: Complex64) -> (Complex64, f64) {
        let at_real = exact_zero(s.im);
        let mut value = Complex64::from_real(self.constant);
        let mut magnitude = self.constant.abs();
        for b in self.blocks() {
            let (v, m) = b.eval_with_magnitude(s);
            if !b.pair {
                value += v;
                magnitude += m;
            } else if at_real {
                value += Complex64::from_real(2.0 * v.re);
                magnitude += 2.0 * m;
            } else {
                let (mirror, mirror_mag) = b.eval_with_magnitude(s.conj());
                value += v;
                value += mirror.conj();
                magnitude += m + mirror_mag;
            }
        }
        (value, magnitude)
    }

    /// Evaluates the MGF at every point: `out[k] = self.eval(zs[k])`, bit
    /// for bit, pole-major (each block updates every point before the
    /// next block, its [`PoleBlock::is_ladder`] test made once rather
    /// than once per point). Panics if `zs` and `out` disagree in length.
    pub(crate) fn eval_many(&self, zs: &[Complex64], out: &mut [Complex64]) {
        assert_eq!(zs.len(), out.len(), "eval_many: one output per point");
        out.fill(Complex64::from_real(self.constant));
        for b in self.blocks() {
            let ladder = b.is_ladder();
            b.add_eval_many(ladder, false, zs, out);
            if b.pair {
                b.add_eval_many(ladder, true, zs, out);
            }
        }
    }

    /// The l-th derivative of the MGF at `s` (constant contributes only at
    /// `l = 0`).
    pub fn derivative(&self, s: Complex64, l: u32) -> Complex64 {
        let mut acc = if l == 0 {
            Complex64::from_real(self.constant)
        } else {
            Complex64::ZERO
        };
        for b in self.blocks() {
            acc += b.derivative(s, l);
            if b.pair {
                acc += b.derivative(s.conj(), l).conj();
            }
        }
        acc
    }

    /// `Σ_blocks members·Re f(block)`: a real quantity summed over every
    /// pole, each pair's mirror adding the stored member's real part
    /// again.
    fn sum_re(&self, f: impl Fn(&PoleBlock<'_>) -> Complex64) -> f64 {
        self.blocks().map(|b| b.members() * f(&b).re).sum()
    }

    /// Tail distribution function `P(X > x)` for `x ≥ 0`, by term-by-term
    /// inversion (the real part of the block sum). Panics if `x < 0`;
    /// finite for finite coefficients (cancellation, not overflow, is the
    /// failure mode — see [`ErlangMix::tail_with_bound`]).
    pub fn tail(&self, x: f64) -> f64 {
        assert!(x >= 0.0 || x.is_nan(), "tail: x must be non-negative");
        self.sum_re(|b| b.tail(x))
    }

    /// [`ErlangMix::tail`] and its running error bound
    /// `ε·Σ Ã_{λ,m}·|P(m)·e^{-λx}|` over every term, `Ã` the magnitude
    /// companions (see [`PoleBlock::tail_terms`]): a bound on the
    /// tail's rounding error, the coefficients' own included. Where the
    /// terms cancel (clustered poles) the bound grows with them. Panics
    /// if `x < 0`.
    pub fn tail_with_bound(&self, x: f64) -> (f64, f64) {
        let (tail, _, bound) = self.tail_slope_bound(x);
        (tail, bound)
    }

    /// [`ErlangMix::tail_with_bound`] with the tail's derivative in `x`
    /// (minus the density) between them. Panics if `x < 0`.
    pub(crate) fn tail_slope_bound(&self, x: f64) -> (f64, f64, f64) {
        assert!(x >= 0.0 || x.is_nan(), "tail: x must be non-negative");
        let mut t = 0.0;
        let mut slope = 0.0;
        let mut magnitude = 0.0;
        for b in self.blocks() {
            let (bt, bs, bm) = b.tail_terms(x);
            let members = b.members();
            t += members * bt.re;
            slope += members * bs.re;
            magnitude += members * bm;
        }
        (t, slope, f64::EPSILON * magnitude)
    }

    /// Mean of the distribution: `Σ_blocks Σ_m A_m m/λ` (real part).
    /// Finite whenever every block coefficient is finite.
    pub fn mean(&self) -> f64 {
        self.sum_re(|b| b.mean())
    }

    /// Total mass `M(0) = constant + Σ A` — must be 1 for a probability
    /// law; exposed for validation. Finite whenever every coefficient is
    /// finite.
    pub fn total_mass(&self) -> f64 {
        self.eval(Complex64::ZERO).re
    }

    /// L1 norm of the expansion coefficients, `|c| + Σ|A_{λ,m}|`.
    ///
    /// A probability law has mass 1, so an L1 norm far above 1 means the
    /// expansion relies on cancellation between terms — the intrinsic
    /// ill-conditioning of the partial-fraction form when poles cluster
    /// (D/E_K/1 poles approach the position pole β as ρ_d → 0). A global
    /// figure: how much of it a tail at `x` actually loses is what
    /// [`ErlangMix::tail_with_bound`] measures. Always finite and
    /// non-negative for finite coefficients.
    pub fn coeff_l1(&self) -> f64 {
        self.constant.abs()
            + self
                .blocks()
                .map(|b| b.members() * b.coeffs.iter().map(|c| c.abs()).sum::<f64>())
                .sum::<f64>()
    }

    /// The decay rate of the slowest (dominant) pole: `min Re λ`.
    ///
    /// Returns `None` when the mix is a pure atom.
    pub fn dominant_decay(&self) -> Option<f64> {
        self.poles
            .iter()
            .map(|p| p.re)
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Tail using *only* the dominant pole block (with its mirror, if
    /// it is a conjugate pair) — the "method of the dominant pole" of
    /// §3.3.
    pub fn tail_dominant_pole(&self, x: f64) -> f64 {
        let Some(dom) = self.dominant_decay() else {
            return 0.0;
        };
        // Include every block whose decay is within 0.1% of the dominant
        // one (genuine ties).
        self.blocks()
            .filter(|b| b.pole.re <= dom * (1.0 + 1e-3) + 1e-300)
            .map(|b| b.members() * b.tail(x).re)
            .sum()
    }

    /// The p-quantile of the delay: smallest `x ≥ 0` with
    /// `P(X > x) ≤ 1 - p`. Solved by [`invert_tail`] on the closed-form tail.
    ///
    /// For the paper's headline number use `p = 0.99999` (the 99.999 %
    /// quantile of §4). Panics unless `p ∈ (0, 1)`; NaN if the bracketed
    /// solve fails to converge.
    pub fn quantile(&self, p: f64) -> f64 {
        self.quantile_with_hint(p, None)
    }

    /// [`ErlangMix::quantile`] warm-started from a nearby known quantile
    /// (e.g. the same mix's quantile at a neighboring grid cell).
    ///
    /// The hint only short-circuits the bracket *search*: both paths end
    /// on the identical canonical bracket `[0, scale·2ⁿ]` (`n` minimal
    /// with the tail below target), so the hinted result is bit-identical
    /// to the cold one — a cell evaluated through a sweep engine's warm
    /// start can be diffed exactly against a fresh evaluation.
    ///
    /// Panics unless `p ∈ (0, 1)`; NaN if the bracketed solve fails to
    /// converge.
    pub fn quantile_with_hint(&self, p: f64, hint: Option<f64>) -> f64 {
        self.quantile_scaled(p, hint, self.mean().abs())
    }

    /// [`ErlangMix::quantile_with_hint`] with the bracket scaled by the
    /// slowest decay or `mean`, whichever is longer, and Brent to 1e-12
    /// of that scale (relative, so a quantile of nanoseconds is solved as
    /// finely as one of seconds). A law whose coefficients cancel (the closed-form eq.-35
    /// expansion) passes the mean of its factors: its own would sum the
    /// cancelling coefficients, as rounding noise far off the true scale.
    /// The tail is clamped to `[0, 1]` (no bit changes where it is in
    /// range): read where its terms cancel it can be noise of any size,
    /// past what Brent's interpolation can take.
    ///
    /// Panics unless `p ∈ (0, 1)`; NaN if the bracketed solve fails to
    /// converge.
    pub fn quantile_scaled(&self, p: f64, hint: Option<f64>, mean: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile: p must lie in (0,1), got {p}");
        let target = 1.0 - p;
        let tail = |x: f64| self.tail(x).clamp(0.0, 1.0);
        if tail(0.0) <= target {
            return 0.0;
        }
        let scale = self
            .dominant_decay()
            .map_or(1.0, |d| 1.0 / d)
            .max(mean)
            .max(1e-12);
        invert_tail(tail, target, scale, hint, 1e-12 * scale).unwrap_or(f64::NAN)
    }

    /// Quantile via the dominant-pole tail (§3.3's shortcut).
    pub fn quantile_dominant_pole(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile: p must lie in (0,1), got {p}");
        let target = 1.0 - p;
        let Some(dom) = self.dominant_decay() else {
            return 0.0;
        };
        if self.tail_dominant_pole(0.0) <= target {
            return 0.0;
        }
        let scale = 1.0 / dom;
        // Clamped as in `quantile_scaled`: a dominant block whose
        // coefficient cancels against the others reads any size alone.
        invert_tail(
            |x| self.tail_dominant_pole(x).clamp(0.0, 1.0),
            target,
            scale,
            None,
            1e-12 * scale,
        )
        .unwrap_or(f64::NAN)
    }

    /// Chernoff-bound tail (the method of eq. (36)):
    /// `P(X > x) ≈ inf_{0<s<s_max} e^{-sx}·M(s)`, minimized on the real
    /// segment below the dominant pole.
    pub fn tail_chernoff(&self, x: f64) -> f64 {
        let Some(dom) = self.dominant_decay() else {
            return 0.0;
        };
        let s_max = dom * (1.0 - 1e-9);
        let obj = |s: f64| {
            let v = self.eval(Complex64::from_real(s));
            (-s * x).exp() * v.re
        };
        golden_min(obj, 0.0, s_max, 1e-12, 200).1
    }

    /// Quantile via the Chernoff tail. Panics unless `p ∈ (0, 1)`; NaN if
    /// the bracketed solve fails to converge.
    pub fn quantile_chernoff(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile: p must lie in (0,1), got {p}");
        let target = 1.0 - p;
        let Some(dom) = self.dominant_decay() else {
            return 0.0;
        };
        let scale = 1.0 / dom;
        invert_tail(
            |x| self.tail_chernoff(x),
            target,
            scale,
            None,
            1e-12 * scale.max(1.0),
        )
        .unwrap_or(f64::NAN)
    }

    /// Whether two poles collide: `|p − r| < POLE_COLLISION_RTOL·max(|p|,
    /// |r|)`, compared in squares.
    pub(crate) fn collide(p: Complex64, r: Complex64) -> bool {
        (p - r).norm_sqr() < POLE_COLLISION_RTOL.powi(2) * p.norm_sqr().max(r.norm_sqr())
    }
}

/// The plain Appendix-A product the tests check expansions against.
#[cfg(test)]
#[path = "../../../tests/support/eq43.rs"]
pub(crate) mod eq43;

#[cfg(test)]
#[allow(clippy::unnecessary_cast)]
mod tests {
    use super::eq43::product;
    use super::*;
    use fpsping_num::laplace::{tail_from_mgf, DEFAULT_EULER_M};

    /// Exponential-with-atom mix: (1-w) + w·λ/(λ-s).
    fn expo(w: f64, lam: f64) -> ErlangMix {
        ErlangMix::exponential_with_atom(1.0 - w, w, lam)
    }

    /// Pure Erlang(m, λ) as a mix.
    fn erl(m: usize, lam: f64) -> ErlangMix {
        let mut coeffs = vec![0.0; m];
        coeffs[m - 1] = 1.0;
        ErlangMix::single_real_pole(0.0, lam, coeffs)
    }

    #[test]
    fn unit_mix_is_degenerate_at_zero() {
        let u = ErlangMix::unit();
        assert_eq!(u.total_mass(), 1.0);
        assert_eq!(u.tail(0.0), 0.0);
        assert_eq!(u.mean(), 0.0);
        assert_eq!(u.quantile(0.999), 0.0);
    }

    #[test]
    fn exponential_mix_tail_and_mean() {
        let m = expo(0.3, 2.0);
        assert!((m.total_mass() - 1.0).abs() < 1e-14);
        assert!((m.tail(0.0) - 0.3).abs() < 1e-14);
        assert!((m.tail(1.0) - 0.3 * (-2.0f64).exp()).abs() < 1e-14);
        assert!((m.mean() - 0.3 / 2.0).abs() < 1e-14);
    }

    #[test]
    fn erlang_mix_tail_matches_gamma_q() {
        let m = erl(5, 1.3);
        for &x in &[0.1, 1.0, 5.0, 12.0] {
            let expect = fpsping_num::special::gamma_q(5.0, 1.3 * x);
            assert!((m.tail(x) - expect).abs() < 1e-12, "x={x}");
        }
        assert!((m.mean() - 5.0 / 1.3).abs() < 1e-12);
    }

    #[test]
    fn quantile_inverts_tail() {
        let m = expo(0.8, 0.5);
        for &p in &[0.9, 0.99, 0.99999] {
            let q = m.quantile(p);
            assert!((m.tail(q) - (1.0 - p)).abs() < 1e-12, "p={p}");
        }
        // Atom large enough that the 50% quantile is 0.
        let m2 = expo(0.3, 1.0);
        assert_eq!(m2.quantile(0.7), 0.0);
    }

    #[test]
    fn fast_law_quantile_is_solved_relative_to_its_scale() {
        // An exponential of rate 1e8: its 99.999 % quantile is
        // -ln(1 - p)/1e8 ≈ ln(1e5)/1e8 ≈ 1.15e-7 s. Both solves stop
        // within 1e-12 of the scale 1/rate, so within 1e-20 s here; an
        // absolute stop at 1e-12 s left them 2.9e-11 relative
        // (3.3e-18 s) off.
        let (rate, p) = (1e8, 0.99999f64);
        let m = ErlangMix::exponential_with_atom(0.0, 1.0, rate);
        let want = -(1.0 - p).ln() / rate;
        for q in [m.quantile(p), m.quantile_dominant_pole(p)] {
            assert!(
                (q - want).abs() <= 1e-12 / rate,
                "{q:e} vs {want:e}: {:e} relative",
                (q - want).abs() / want
            );
        }
    }

    #[test]
    fn product_of_two_exponentials_matches_convolution() {
        // X ~ Exp(1) (no atom), Y ~ Exp(2): sum has tail
        // 2e^{-x} - e^{-2x} (hypoexponential).
        let x = erl(1, 1.0);
        let y = erl(1, 2.0);
        let p = product(&x, &y);
        assert!((p.total_mass() - 1.0).abs() < 1e-12);
        for &t in &[0.2, 1.0, 3.0, 8.0] {
            let expect = 2.0 * (-t as f64).exp() - (-2.0 * t as f64).exp();
            assert!(
                (p.tail(t) - expect).abs() < 1e-11,
                "t={t}: {} vs {expect}",
                p.tail(t)
            );
        }
        assert!((p.mean() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn product_with_atoms_keeps_masses() {
        // (0.4 + 0.6·Exp(1)) ⊗ (0.5 + 0.5·Exp(3)).
        let a = expo(0.6, 1.0);
        let b = expo(0.5, 3.0);
        let p = product(&a, &b);
        assert!((p.constant - 0.2).abs() < 1e-14);
        assert!((p.total_mass() - 1.0).abs() < 1e-12);
        // Mean adds: 0.6·1 + 0.5/3.
        assert!((p.mean() - (0.6 + 0.5 / 3.0)).abs() < 1e-12);
        // MGF product check at a few points.
        for &s in &[-1.0, -0.2, 0.3] {
            let sc = Complex64::from_real(s);
            let direct = a.eval(sc) * b.eval(sc);
            let expanded = p.eval(sc);
            assert!((direct - expanded).abs() < 1e-12, "s={s}");
        }
    }

    #[test]
    fn product_matches_numerical_inversion() {
        // Three-factor product shaped like the paper's eq. (35):
        // upstream (atom + expo), burst wait (two expo poles), position
        // (Erlang ladder) — validated against Abate–Whitt inversion.
        let up = expo(0.25, 4.0);
        let wait = ErlangMix::atom(0.5)
            .with_pole(Complex64::from_real(1.0), &[Complex64::from_real(0.3)])
            .with_pole(Complex64::from_real(2.5), &[Complex64::from_real(0.2)]);
        let pos = ErlangMix::single_real_pole(0.0, 3.0, vec![0.5, 0.5]);
        let total = product(&product(&up, &wait), &pos);
        assert!((total.total_mass() - 1.0).abs() < 1e-10);
        let mgf = |s: Complex64| total.eval(s);
        for &t in &[0.1, 0.5, 1.5, 4.0] {
            let numeric = tail_from_mgf(mgf, t, DEFAULT_EULER_M);
            let closed = total.tail(t);
            assert!(
                (numeric - closed).abs() < 1e-8,
                "t={t}: numeric {numeric} vs closed {closed}"
            );
        }
    }

    #[test]
    fn product_with_repeated_pole_in_one_factor() {
        // Erlang(3, 2) ⊗ Exp(1): tail check against numerical inversion —
        // exercises multiplicity > 1 convolution.
        let a = erl(3, 2.0);
        let b = erl(1, 1.0);
        let p = product(&a, &b);
        let mgf = |s: Complex64| p.eval(s);
        for &t in &[0.3, 1.0, 2.5, 6.0] {
            let numeric = tail_from_mgf(mgf, t, DEFAULT_EULER_M);
            assert!((p.tail(t) - numeric).abs() < 1e-8, "t={t}");
        }
        // Mean adds.
        assert!((p.mean() - (1.5 + 1.0)).abs() < 1e-11);
    }

    #[test]
    fn complex_conjugate_pair_gives_real_tail() {
        // A complex pole stands for itself and its mirror: the tail, mean
        // and MGF are those of both members with conjugate coefficients.
        let pole = Complex64::new(1.0, 0.7);
        let coef = Complex64::new(0.2, -0.1);
        let m = ErlangMix::atom(0.6).with_pole(pole, &[coef]);
        let blocks: Vec<_> = m.blocks().collect();
        assert_eq!(blocks.len(), 1);
        assert!(blocks[0].pair && blocks[0].members() == 2.0);
        let both = |f: &dyn Fn(Complex64, Complex64) -> Complex64| {
            f(pole, coef) + f(pole.conj(), coef.conj())
        };
        assert!((m.total_mass() - 1.0).abs() < 1e-15);
        for &x in &[0.0, 0.5, 2.0, 5.0] {
            let want = both(&|p, c| c * (-p * x).exp());
            assert!(want.im.abs() < 1e-16);
            assert!((m.tail(x) - want.re).abs() < 1e-15, "x={x}");
        }
        assert!((m.mean() - both(&|p, c| c / p).re).abs() < 1e-15);
        let s = Complex64::new(-0.4, 2.5);
        let want = Complex64::from_real(0.6) + both(&|p, c| c * p / (p - s));
        assert!((m.eval(s) - want).abs() < 1e-15, "{} vs {want}", m.eval(s));
        // A real pole stands alone.
        let real = expo(0.3, 2.0);
        assert!(real.blocks().all(|b| !b.pair && b.members() == 1.0));
    }

    #[test]
    fn chernoff_upper_bounds_exact_tail() {
        let m = product(&expo(0.5, 1.0), &erl(2, 3.0));
        for &x in &[0.5, 1.0, 3.0, 6.0] {
            let exact = m.tail(x);
            let chern = m.tail_chernoff(x);
            assert!(
                chern >= exact - 1e-12,
                "Chernoff must upper-bound: x={x}, {chern} < {exact}"
            );
            // ... and not be absurdly loose (within ~an order of magnitude
            // for this well-behaved case).
            assert!(chern < 20.0 * exact.max(1e-12), "x={x}: {chern} vs {exact}");
        }
    }

    #[test]
    fn dominant_pole_tail_is_exact_asymptotically() {
        let m = ErlangMix::atom(0.4)
            .with_pole(Complex64::from_real(0.5), &[Complex64::from_real(0.35)])
            .with_pole(Complex64::from_real(5.0), &[Complex64::from_real(0.25)]);
        let x = 20.0;
        let full = m.tail(x);
        let dom = m.tail_dominant_pole(x);
        assert!((full - dom).abs() / full < 1e-10);
        // At x = 0 the dominant tail misses the fast pole's mass.
        assert!(m.tail_dominant_pole(0.0) < m.tail(0.0));
    }

    #[test]
    fn tail_slope_and_bound_come_with_the_tail() {
        // Erlang(3, 2) ⊗ (0.4 + 0.6·Exp(1)): multiplicity and an atom.
        let m = product(&erl(3, 2.0), &expo(0.6, 1.0));
        for &x in &[0.2, 1.0, 3.0, 7.0] {
            let (t, slope, bound) = m.tail_slope_bound(x);
            assert_eq!(t.to_bits(), m.tail(x).to_bits(), "x={x}");
            assert_eq!((t, bound), m.tail_with_bound(x));
            let h = 1e-6;
            let fd = (m.tail(x + h) - m.tail(x - h)) / (2.0 * h);
            assert!((slope - fd).abs() < 1e-7, "x={x}: {slope} vs {fd}");
            // Well-conditioned: the bound is a few ulps of the terms.
            assert!(bound > 0.0 && bound < 1e-14, "x={x}: bound {bound:e}");
        }
    }

    #[test]
    fn magnitude_companions_grow_where_terms_cancel() {
        // Two factors with nearly equal poles: the product's coefficients
        // are huge and cancel, and the companions record it. Input
        // coefficients' companions are their moduli.
        let a = erl(1, 1.0);
        let b = erl(2, 1.0 + 1e-4);
        for blk in a.blocks() {
            assert_eq!(blk.magnitudes, &[1.0]);
        }
        let p = product(&a, &b);
        let total: f64 = p.blocks().flat_map(|b| b.magnitudes.iter()).sum();
        assert!(total > 1e7, "companions {total:e}");
        let (t, bound) = p.tail_with_bound(0.5);
        let numeric = tail_from_mgf(|s| a.eval(s) * b.eval(s), 0.5, DEFAULT_EULER_M);
        assert!(
            (t - numeric).abs() <= bound + 1e-9,
            "{t} vs {numeric}, bound {bound:e}"
        );
        assert!(bound > 1e-10, "bound {bound:e}");
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let m = product(&expo(0.7, 2.0), &erl(2, 5.0));
        let s = Complex64::from_real(-0.3);
        let h = 1e-5;
        for l in 1..4u32 {
            // Central finite difference of the (l-1)-th derivative.
            let f1 = m.derivative(s + Complex64::from_real(h), l - 1);
            let f2 = m.derivative(s - Complex64::from_real(h), l - 1);
            let fd = (f1 - f2) / (2.0 * h);
            let an = m.derivative(s, l);
            assert!(
                (fd - an).abs() < 1e-4 * an.abs().max(1.0),
                "l={l}: fd={fd}, analytic={an}"
            );
        }
    }

    #[test]
    fn eval_many_is_bit_identical_to_eval() {
        // A uniform-position ladder (closed form far from the pole, term
        // by term near it), an Erlang spot, and a two-block mix with an
        // atom; 150 points run past one lane block, and the small ones
        // come close enough to the pole for |1 − base| ≤ 0.2.
        let ladder = ErlangMix::single_real_pole(0.0, 4000.0, vec![1.0 / 19.0; 19]);
        let spot = erl(12, 2500.0);
        let two = expo(0.3, 700.0).with_pole(
            Complex64::new(900.0, 300.0),
            &[Complex64::new(0.01, 0.02); 7],
        );
        let zs: Vec<Complex64> = (0..150)
            .map(|i| {
                -Complex64::new(13.8, std::f64::consts::PI * i as f64) * (2.0 + 3.0 * i as f64)
            })
            .collect();
        for (name, mix) in [("ladder", &ladder), ("spot", &spot), ("two", &two)] {
            let mut out = vec![Complex64::new(f64::NAN, f64::NAN); zs.len()];
            mix.eval_many(&zs, &mut out);
            for (i, (&z, &got)) in zs.iter().zip(&out).enumerate() {
                let want = mix.eval(z);
                assert_eq!(
                    (got.re.to_bits(), got.im.to_bits()),
                    (want.re.to_bits(), want.im.to_bits()),
                    "{name} point {i}"
                );
            }
        }
        let ladders = |m: &ErlangMix| m.blocks().map(|b| b.is_ladder()).collect::<Vec<_>>();
        assert_eq!(ladders(&ladder), vec![true]);
        assert_eq!(ladders(&spot), vec![false]);
        assert_eq!(ladders(&two), vec![false, true]);
    }

    #[test]
    fn golden_min_finds_parabola_vertex() {
        let (x, v) = golden_min(|x| (x - 2.0) * (x - 2.0) + 1.0, 0.0, 10.0, 1e-12, 200);
        assert!((x - 2.0).abs() < 1e-6);
        assert!((v - 1.0).abs() < 1e-10);
    }

    /// Runs [`invert_tail`] on the Erlang-2 tail `(1 + x)·e^{-x}` and
    /// returns the root with the end of the bracket Brent solved on:
    /// Brent's first two evaluations are at the bracket's ends, which
    /// the bracket search visited before, so the end is the first point
    /// evaluated twice whose tail is at most the target.
    fn erlang2_root(target: f64, hint: Option<f64>) -> (f64, f64) {
        let tail = |x: f64| (1.0 + x) * (-x).exp();
        let seen = std::cell::RefCell::new(Vec::new());
        let root = invert_tail(
            |x| {
                seen.borrow_mut().push(x);
                tail(x)
            },
            target,
            0.3,
            hint,
            1e-12,
        )
        .unwrap();
        let seen = seen.into_inner();
        let end = (1..seen.len())
            .map(|i| seen[i])
            .find(|&x| tail(x) <= target && seen.iter().filter(|&&y| y == x).count() > 1)
            .unwrap();
        (root, end)
    }

    #[test]
    fn inversion_brackets_from_the_last_point_above_the_target() {
        // A tail that is rounding noise below x = 6, as an expansion
        // whose terms cancel there: it oscillates about 0 with an
        // amplitude of 1.5 targets, reading just above the target at 0,
        // 2 and 4, and past 6 it decays through the target at 11.5. The
        // minimal bracket end is 2·2³ = 16 and the tail at 8 is above
        // the target. Brent on [0, 16] steps from 0, where the tail is
        // nearest the target, into the noise and stops on one of its
        // crossings.
        let target = 1e-5;
        let tail = |x: f64| {
            if x < 6.0 {
                1.5 * target * (3.0 * x).cos()
            } else {
                target * (11.5 - x).exp()
            }
        };
        assert!([0.0, 2.0, 4.0, 8.0].iter().all(|&x| tail(x) > target));
        assert!(tail(16.0) <= target);
        let root = invert_tail(tail, target, 2.0, None, 1e-13).unwrap();
        assert!(
            (root - 11.5).abs() < 1e-12,
            "root {root} is a noise crossing, not the tail's at 11.5"
        );
    }

    #[test]
    fn hinted_inversion_lands_on_the_cold_bracket_and_root() {
        let target = 1e-5;
        let (cold, bracket) = erlang2_root(target, None);
        assert!(((1.0 + cold) * (-cold).exp() - target).abs() < 1e-15);
        assert!(bracket > cold && bracket / 2.0 <= cold, "minimal bracket");
        let hints = [
            1e-3 * cold,
            0.5 * cold,
            cold,
            bracket,
            2.0 * cold,
            1e3 * cold,
            f64::NAN,
            f64::INFINITY,
            -cold,
            0.0,
        ];
        for hint in hints {
            let (root, b) = erlang2_root(target, Some(hint));
            assert_eq!(b.to_bits(), bracket.to_bits(), "hint {hint}: bracket");
            assert_eq!(root.to_bits(), cold.to_bits(), "hint {hint}: root");
        }
    }

    #[test]
    fn tail_that_never_crosses_the_target_is_refused() {
        let never = Err(QueueError::SolveFailure {
            what: "quantile bracket search never crossed the target",
        });
        assert_eq!(invert_tail(|_| 1e-3, 1e-5, 1.0, None, 1e-12), never);
        assert_eq!(
            invert_tail(|_| f64::NAN, 1e-5, 1.0, Some(8.0), 1e-12),
            never
        );
        // A hint past the 2²⁰⁰ cap starts the search at the cap.
        assert_eq!(invert_tail(|_| 1e-3, 1e-5, 1.0, Some(1e300), 1e-12), never);
    }
}

/// The folded mix against an unfolded reference: every pole of a pair
/// written out as its own term, the Appendix-A product by the naive
/// derivative formula of eq. (43), and the tail, slope, error bound and
/// MGF summed term by term. The folded test product (`eq43`),
/// [`ErlangMix::tail_slope_bound`] and [`ErlangMix::eval_many`] must
/// agree with it to a few ulps of their terms.
#[cfg(test)]
mod unfolded_oracle {
    use super::eq43::product;
    use super::*;
    use crate::dek1::DEk1;
    use crate::position::PositionDelay;

    /// One explicit pole: location, coefficients by multiplicity, and
    /// their magnitude companions.
    type Term = (Complex64, Vec<Complex64>, Vec<f64>);

    /// A mix with every pole explicit.
    struct Unfolded {
        constant: f64,
        terms: Vec<Term>,
    }

    fn unfold(m: &ErlangMix) -> Unfolded {
        let mut terms = Vec::new();
        for b in m.blocks() {
            terms.push((b.pole, b.coeffs.to_vec(), b.magnitudes.to_vec()));
            if b.pair {
                let mirror = b.coeffs.iter().map(|c| c.conj()).collect();
                terms.push((b.pole.conj(), mirror, b.magnitudes.to_vec()));
            }
        }
        Unfolded {
            constant: m.constant,
            terms,
        }
    }

    /// `n!` as a float.
    fn factorial(n: usize) -> f64 {
        (1..=n).map(|i| i as f64).product()
    }

    impl Unfolded {
        fn eval(&self, s: Complex64) -> Complex64 {
            let mut acc = Complex64::from_real(self.constant);
            for (p, coeffs, _) in &self.terms {
                for (i, &c) in coeffs.iter().enumerate() {
                    acc += c * (*p / (*p - s)).powi(i as i32 + 1);
                }
            }
            acc
        }

        /// `G^{(l)}(s)/l!`, from `d^l/ds^l (p/(p-s))^m =
        /// p^m·(m)_l·(p-s)^{-(m+l)}`, and the same sum in moduli.
        fn taylor(&self, s: Complex64, l: usize) -> (Complex64, f64) {
            let mut acc = if l == 0 {
                Complex64::from_real(self.constant)
            } else {
                Complex64::ZERO
            };
            let mut mag = if l == 0 { self.constant.abs() } else { 0.0 };
            for (p, coeffs, _) in &self.terms {
                for (i, &c) in coeffs.iter().enumerate() {
                    let m = i + 1;
                    let t = c * p.powi(m as i32) * rising_factorial(m as u32, l as u32)
                        / factorial(l)
                        / (*p - s).powi((m + l) as i32);
                    acc += t;
                    mag += t.abs();
                }
            }
            (acc, mag)
        }

        /// Eq. (43) at every pole of each factor, each coefficient with
        /// the modulus sum of its terms.
        fn product(&self, other: &Unfolded) -> Unfolded {
            let mut terms = Vec::new();
            for (f, g) in [(self, other), (other, self)] {
                for (lam, a, _) in &f.terms {
                    let m_max = a.len();
                    let (coeffs, mags) = (1..=m_max)
                        .map(|k| {
                            (k..=m_max).fold((Complex64::ZERO, 0.0), |(acc, mag), m| {
                                let (g_l, g_mag) = g.taylor(*lam, m - k);
                                let scale = a[m - 1] * (-*lam).powi((m - k) as i32);
                                (acc + scale * g_l, mag + scale.abs() * g_mag)
                            })
                        })
                        .unzip();
                    terms.push((*lam, coeffs, mags));
                }
            }
            Unfolded {
                constant: self.constant * other.constant,
                terms,
            }
        }

        /// `(tail, slope, ε·Σ Ã·|P(m)|·|e^{-λx}|)`, term by term.
        fn tail_slope_bound(&self, x: f64) -> (f64, f64, f64) {
            let (mut tail, mut slope, mut bound) = (Complex64::ZERO, Complex64::ZERO, 0.0);
            for (p, coeffs, mags) in &self.terms {
                let decay = (-*p * x).exp();
                for (i, &c) in coeffs.iter().enumerate() {
                    let psum: Complex64 = (0..=i)
                        .map(|t| (*p * x).powi(t as i32) / factorial(t))
                        .sum();
                    tail += c * psum * decay;
                    slope += -*p * c * (*p * x).powi(i as i32) / factorial(i) * decay;
                    if let Some(&mag) = mags.get(i) {
                        bound += mag * l1(psum) * l1(decay);
                    }
                }
            }
            (tail.re, slope.re, f64::EPSILON * bound)
        }
    }

    /// The factors: an upstream exponential, the D/E_K/1 burst wait, the
    /// uniform position ladder and an Erlang spot at β, and two laws
    /// with conjugate pairs of multiplicity 2 and 3 (a pair meeting a
    /// pair at a complex pole, and a real ladder at a real one).
    fn factors(k: u32) -> Vec<(&'static str, ErlangMix)> {
        let (t, rho) = (0.04, 0.6);
        let beta = k as f64 / (rho * t);
        let burst = DEk1::new(k, rho * t, t).unwrap().to_mix();
        let position = PositionDelay::uniform(k, beta).unwrap().to_mix().unwrap();
        let mut spot = vec![0.0; k as usize];
        spot[k as usize - 1] = 1.0;
        let c = |re, im| Complex64::new(re, im);
        vec![
            (
                "upstream",
                ErlangMix::exponential_with_atom(0.68, 0.32, 2500.0),
            ),
            ("burst", burst),
            ("position", position),
            ("spot", ErlangMix::single_real_pole(0.0, beta * 1.37, spot)),
            (
                "pair2",
                ErlangMix::atom(0.5).with_pole(c(90.0, 30.0), &[c(0.1, 0.05), c(0.15, -0.02)]),
            ),
            (
                "pair3",
                ErlangMix::atom(0.4).with_pole(
                    c(120.0, -50.0),
                    &[c(0.1, 0.0), c(0.05, 0.05), c(0.1, -0.03)],
                ),
            ),
        ]
    }

    /// The products the oracle checks: the paper's eq.-35 chain and
    /// every mix of pair kinds.
    fn products(k: u32) -> Vec<(String, ErlangMix, ErlangMix)> {
        let f = factors(k);
        let get = |name: &str| f.iter().find(|(n, _)| *n == name).unwrap().1.clone();
        let partial = product(&get("upstream"), &get("burst"));
        let mut out = vec![("partial".to_string(), get("upstream"), get("burst"))];
        for (a, b) in [
            ("burst", "pair2"),
            ("pair2", "pair3"),
            ("position", "pair3"),
            ("spot", "burst"),
            ("burst", "position"),
        ] {
            out.push((format!("{a}·{b}"), get(a), get(b)));
        }
        out.push(("partial·position".to_string(), partial, get("position")));
        out
    }

    /// Folded and unfolded products agree coefficient by coefficient,
    /// within a few ulps of the modulus sum of each coefficient's terms.
    #[test]
    fn product_matches_the_unfolded_convolution() {
        for k in [2u32, 3, 4, 5, 9, 20] {
            for (name, a, b) in products(k) {
                let folded = unfold(&product(&a, &b));
                let oracle = unfold(&a).product(&unfold(&b));
                assert_eq!(folded.terms.len(), oracle.terms.len(), "K={k} {name}");
                assert_eq!(folded.constant.to_bits(), oracle.constant.to_bits());
                for (i, ((pf, cf, _), (po, co, mo))) in
                    folded.terms.iter().zip(&oracle.terms).enumerate()
                {
                    assert_eq!(
                        (pf.re.to_bits(), pf.im.to_bits()),
                        (po.re.to_bits(), po.im.to_bits()),
                        "K={k} {name} pole {i}"
                    );
                    for (m, ((&x, &y), &mag)) in cf.iter().zip(co).zip(mo).enumerate() {
                        assert!(
                            (x - y).abs() <= 64.0 * f64::EPSILON * mag,
                            "K={k} {name} pole {i} multiplicity {}: {x} vs {y} (companion {mag:e})",
                            m + 1
                        );
                    }
                }
            }
        }
    }

    /// The folded tail, slope and bound add each pair's stored member
    /// twice: they equal the term-by-term sums over both members.
    #[test]
    fn tail_slope_bound_matches_the_unfolded_sum() {
        for k in [2u32, 3, 4, 5, 9, 20] {
            for (name, a, b) in products(k) {
                let mix = product(&a, &b);
                let oracle = unfold(&mix);
                let scale = 1.0 / mix.dominant_decay().unwrap();
                for f in [0.05, 0.5, 2.0, 8.0] {
                    let x = f * scale;
                    let (t, s, bound) = mix.tail_slope_bound(x);
                    let (to, so, bo) = oracle.tail_slope_bound(x);
                    assert!(
                        (t - to).abs() <= 8.0 * bo,
                        "K={k} {name} x={x:e}: tail {t:e} vs {to:e} (bound {bo:e})"
                    );
                    let slope_scale = bo * mix.blocks().map(|b| b.pole.abs()).fold(0.0, f64::max);
                    assert!(
                        (s - so).abs() <= 64.0 * slope_scale,
                        "K={k} {name} x={x:e}: slope {s:e} vs {so:e}"
                    );
                    assert!(
                        (bound - bo).abs() <= 1e-12 * bo,
                        "K={k} {name} x={x:e}: bound {bound:e} vs {bo:e}"
                    );
                    assert_eq!(t.to_bits(), mix.tail(x).to_bits());
                }
            }
        }
    }

    /// `eval_many` at Euler-contour-shaped points (and `eval`, which it
    /// matches bit for bit) adds `b(s) + conj(b(s̄))` per pair: it equals
    /// the unfolded MGF within a few ulps of its terms.
    #[test]
    fn eval_many_matches_the_unfolded_mgf() {
        for k in [2u32, 3, 4, 5, 9, 20] {
            for (name, mix) in factors(k) {
                let oracle = unfold(&mix);
                let decay = mix.dominant_decay().unwrap();
                let zs: Vec<Complex64> = (0..41)
                    .map(|i| Complex64::new(-0.3 * decay, 0.25 * decay * (i as f64 - 20.0)))
                    .collect();
                let mut out = vec![Complex64::ZERO; zs.len()];
                mix.eval_many(&zs, &mut out);
                for (&z, &got) in zs.iter().zip(&out) {
                    let want = oracle.eval(z);
                    let scale: f64 = mix.constant.abs()
                        + oracle
                            .terms
                            .iter()
                            .flat_map(|(p, c, _)| {
                                c.iter().enumerate().map(move |(i, c)| {
                                    c.abs() * (*p / (*p - z)).abs().powi(i as i32 + 1)
                                })
                            })
                            .sum::<f64>();
                    assert!(
                        (got - want).abs() <= 64.0 * f64::EPSILON * scale,
                        "K={k} {name} s={z}: {got} vs {want}"
                    );
                    let single = mix.eval(z);
                    assert_eq!(
                        (got.re.to_bits(), got.im.to_bits()),
                        (single.re.to_bits(), single.im.to_bits())
                    );
                }
            }
        }
    }
}
