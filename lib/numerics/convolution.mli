(** Linear convolution of sampled signals.

    The distribution algebra computes sums of independent random variables
    by convolving their sampled densities, exactly as the paper's C/GSL
    implementation did. Strategies: a direct O(n·m) form (oracle and
    small-input fast path), a packed-real single-transform FFT form, and
    the overlap–add block method the paper names for long signals.
    {!auto_into} picks one from the operand sizes; it is the only entry
    point the distribution algebra uses.

    The [_into] variants are the zero-allocation hot path: operands are
    read as prefixes ([a] up to [n], [b] up to [m]) of possibly oversized
    pooled arenas and the result is written to [out.(0 .. n+m-2)]. [out]
    must not alias either input. Transform scratch comes from per-domain
    workspaces, so repeated calls allocate nothing; safe to call
    concurrently from distinct domains.

    The FFT strategies run in one C kernel ([fft_stubs.c]: bit reversal,
    butterflies two per 128-bit vector, Hermitian unpack, scaling) that
    computes every output with the same IEEE operations, in the same
    order, as the scalar OCaml code it replaced, so results kept their
    bits. The kernel checks no bounds; every [_into] entry point raises
    [Invalid_argument] before writing anything when [n] or [m] is not
    positive, a prefix is longer than its array, or [out] is shorter
    than [n + m − 1]. *)

val direct : float array -> float array -> float array
(** [direct a b] is the full linear convolution, length
    [length a + length b − 1]. O(n·m). *)

val direct_into : out:float array -> float array -> int -> float array -> int -> unit
(** [direct_into ~out a n b m] is {!direct} on prefixes, into [out]. *)

(** Moment-space fast path for deep convolution chains: past a depth
    threshold the partial sum is replaced by its CLT normal (μ and σ²
    add), certified by the Berry–Esseen inequality
    [sup|F−Φ| ≤ c0·Σρᵢ/(Σσᵢ²)^(3/2)] with [ρᵢ = E|Xᵢ−μᵢ|³]. Kolmogorov
    distance is non-expansive under convolution and independent maxima,
    so per-step bounds accumulate additively. *)
module Moment_chain : sig
  val c0 : float
  (** Shevtsova's 2010 constant, 0.56. *)

  val bound : rho3:float -> var:float -> float
  (** One-step Berry–Esseen bound for summed third absolute central
      moments [rho3] and summed variance [var], clamped to [0, 1]
      (Kolmogorov distance cannot exceed 1; degenerate [var ≤ 0] reports
      the vacuous 1). *)

  val normal_pdf_into :
    out:float array -> n:int -> lo:float -> dx:float -> mean:float -> std:float -> unit
  (** Sample the normal density on [lo + k·dx], [k < n], into [out]. *)
end

val fft_packed : float array -> float array -> float array
(** Packed-real FFT convolution: both real operands travel in a single
    complex forward transform ([z = a + i·b]), the operand spectra are
    separated by conjugate symmetry, and one inverse transform recovers
    the product. O((n+m) log (n+m)); agrees with {!direct} to rounding
    (pinned at 1e-9 in the tests), and with the scalar code it replaced
    bit for bit. *)

val fft_packed_into : out:float array -> float array -> int -> float array -> int -> unit
(** [fft_packed_into ~out a n b m] is {!fft_packed} on prefixes, into [out]. *)

val overlap_add_into :
  out:float array -> ?block:int -> float array -> int -> float array -> int -> unit
(** [overlap_add_into ~out ?block a n b m] convolves the prefix [a.(0..n-1)]
    (the long signal) with [b.(0..m-1)] (the kernel) into [out] by packed
    FFT on blocks of [a] of size [block] (default [max m 64]), each
    block's result added into [out] in block order. Equal to {!direct}
    up to rounding. Raises [Invalid_argument] on a non-positive
    [block]. *)

val auto_into : out:float array -> float array -> int -> float array -> int -> unit
(** [auto_into ~out a n b m] picks a strategy from the prefix sizes:
    {!direct_into} when [n·m ≤ 4096], {!overlap_add_into} (longer operand
    as the signal) when one operand is more than 8× the other,
    {!fft_packed_into} otherwise. *)

