(** Iterative radix-2 complex FFT.

    This replaces the GSL FFT the paper's C implementation relied on. Data
    is carried as separate real/imaginary [float array]s to avoid boxing.
    The butterflies run in C ([fft_stubs.c], two per 128-bit vector, with
    FMA contraction off), over plans built and cached here in OCaml; each
    output is computed by the same IEEE operations in the same order as
    the scalar OCaml loop they replaced, so the bits did not change. *)

type plan
(** The bit-reversal permutation and the forward and inverse twiddles of
    one transform size. *)

val plan : int -> plan
(** [plan n] is the calling domain's cached plan for size [n], built on
    first use. Raises [Invalid_argument] unless [n] is a power of two. *)

val forward : float array -> float array -> unit
(** [forward re im] transforms in place. Length must be a power of two and
    the two arrays must have equal length. *)

val inverse : float array -> float array -> unit
(** [inverse re im] is the unscaled-input inverse transform, in place,
    including the [1/n] normalization, so [inverse (forward x) = x] up to
    rounding. *)

val naive_dft : float array -> float array -> float array * float array
(** [naive_dft re im] is the O(n²) discrete Fourier transform, returned as
    fresh arrays. Used as a test oracle; any length accepted. *)
