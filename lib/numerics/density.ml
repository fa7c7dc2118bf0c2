(* The per-cell passes of every density construction and of an
   independent maximum run in C (density_stubs.c). The wrappers check
   every length the kernels index without checks. *)

external clamp_mass_c :
  float array -> float array -> (int[@untagged]) -> (float[@unboxed]) -> (float[@unboxed])
  = "numerics_density_clamp_mass_byte" "numerics_density_clamp_mass"
[@@noalloc]

external normalize_c :
  float array ->
  float array ->
  (int[@untagged]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  unit = "numerics_density_normalize_byte" "numerics_density_normalize"
[@@noalloc]

external max_indep_c :
  float array ->
  float array ->
  float array ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  (int[@untagged]) ->
  float array ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  (int[@untagged]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  (int[@untagged]) ->
  float array ->
  unit = "numerics_density_max_indep_byte" "numerics_density_max_indep"
[@@noalloc]

let clamp_mass ~dx ~n src ~pdf =
  if n < 2 then invalid_arg "Density.clamp_mass: need at least 2 samples";
  if Array.length src < n || Array.length pdf < n then
    invalid_arg "Density.clamp_mass: buffer shorter than n";
  clamp_mass_c src pdf n dx

let normalize ~dx ~n ~mass ~pdf ~cdf =
  if n < 2 then invalid_arg "Density.normalize: need at least 2 samples";
  if Array.length pdf < n || Array.length cdf < n then
    invalid_arg "Density.normalize: buffer shorter than n";
  if pdf == cdf then invalid_arg "Density.normalize: pdf and cdf are the same buffer";
  normalize_c pdf cdf n dx mass

let max_indep_into ~f1 ~f2 ~lo1 ~dx1 ~cdf1 ~lo2 ~dx2 ~cdf2 ~lo ~dx ~n out =
  if Array.length f1 < n || Array.length f2 < n || Array.length out < n then
    invalid_arg "Density.max_indep_into: buffer shorter than n";
  let n1 = Array.length cdf1 and n2 = Array.length cdf2 in
  if n1 < 2 || n2 < 2 then invalid_arg "Density.max_indep_into: a CDF needs 2 cells";
  max_indep_c f1 f2 cdf1 lo1 dx1 n1 cdf2 lo2 dx2 n2 lo dx n out
