(** Per-cell passes over sampled densities, run in C
    ([density_stubs.c]) with the bits of the scalar OCaml loops they
    replaced: the same IEEE operations in the same order, two independent
    cells per 128-bit vector, running sums kept serial. Every function
    reads and writes only the first [n] cells of its buffers and
    allocates nothing. *)

val clamp_mass : dx:float -> n:int -> float array -> pdf:float array -> float
(** [clamp_mass ~dx ~n src ~pdf] writes [src.(i)] into [pdf.(i)] where it
    is finite and positive and [0.] elsewhere (NaN, ±∞, ±0. and negative
    samples), for [i < n], and returns the trapezoid mass of the result,
    [((pdf.(0) +. pdf.(n−1)) /. 2. +. pdf.(1) +. … +. pdf.(n−2)) *. dx]
    summed left to right. [pdf] may be [src]. Needs [n >= 2] and buffers
    of at least [n] cells. *)

val normalize : dx:float -> n:int -> mass:float -> pdf:float array -> cdf:float array -> unit
(** [normalize ~dx ~n ~mass ~pdf ~cdf] divides [pdf.(i)] by [mass], writes
    the running trapezoid integral of the result into [cdf] ([cdf.(0) =
    0.], [cdf.(i) = cdf.(i−1) +. (pdf.(i−1) +. pdf.(i)) /. 2. *. dx]),
    and, when the last cell is positive, divides every cell by it and caps
    it at [1.] as [Float.min 1.] does (a NaN stays). [cdf] must be a
    different buffer from [pdf]; both hold at least [n >= 2] cells. *)

val max_indep_into :
  f1:float array ->
  f2:float array ->
  lo1:float ->
  dx1:float ->
  cdf1:float array ->
  lo2:float ->
  dx2:float ->
  cdf2:float array ->
  lo:float ->
  dx:float ->
  n:int ->
  float array ->
  unit
(** [max_indep_into ~f1 ~f2 ~lo1 ~dx1 ~cdf1 ~lo2 ~dx2 ~cdf2 ~lo ~dx ~n
    out] writes the density of the maximum of two independent variables,
    [f1.(k) *. F2 x +. f2.(k) *. F1 x] at [x = lo +. k·dx], into [out.(k)]
    for [k < n]. [Fj] reads the CDF samples [cdfj.(i)] at
    [loj +. i·dxj] (the whole array, at least 2 cells) by linear
    interpolation: [0.] at or below [loj], [1.] at or above the last
    abscissa, clamped into [\[0, 1\]] in between. *)
