(* iteration cap of both solvers *)
let max_iter = 200

let check_bracket f lo hi =
  let flo = f lo and fhi = f hi in
  if flo *. fhi > 0. then invalid_arg "Rootfind: interval does not bracket a root";
  (flo, fhi)

let bisect ?(tol = 1e-12) ~f ~lo ~hi () =
  let flo, _ = check_bracket f lo hi in
  if flo = 0. then lo
  else begin
    let lo = ref lo and hi = ref hi and flo = ref flo in
    let mid = ref ((!lo +. !hi) /. 2.) in
    (try
       for _ = 1 to max_iter do
         mid := (!lo +. !hi) /. 2.;
         let fm = f !mid in
         if fm = 0. || (!hi -. !lo) /. 2. < tol then raise Exit;
         if !flo *. fm < 0. then hi := !mid
         else begin
           lo := !mid;
           flo := fm
         end
       done
     with Exit -> ());
    !mid
  end

let brent ?(tol = 1e-12) ~f ~lo ~hi () =
  let fa, fb = check_bracket f lo hi in
  let a = ref lo and b = ref hi and fa = ref fa and fb = ref fb in
  if Float.abs !fa < Float.abs !fb then begin
    let t = !a in
    a := !b;
    b := t;
    let t = !fa in
    fa := !fb;
    fb := t
  end;
  let c = ref !a and fc = ref !fa in
  let d = ref (!b -. !a) in
  let mflag = ref true in
  let result = ref !b in
  (try
     for _ = 1 to max_iter do
       if !fb = 0. || Float.abs (!b -. !a) < tol then begin
         result := !b;
         raise Exit
       end;
       let s =
         if !fa <> !fc && !fb <> !fc then
           (* inverse quadratic interpolation *)
           (!a *. !fb *. !fc /. ((!fa -. !fb) *. (!fa -. !fc)))
           +. (!b *. !fa *. !fc /. ((!fb -. !fa) *. (!fb -. !fc)))
           +. (!c *. !fa *. !fb /. ((!fc -. !fa) *. (!fc -. !fb)))
         else (* secant *)
           !b -. (!fb *. (!b -. !a) /. (!fb -. !fa))
       in
       let lo_bound = ((3. *. !a) +. !b) /. 4. in
       let cond_range =
         let lo', hi' = if lo_bound < !b then (lo_bound, !b) else (!b, lo_bound) in
         s < lo' || s > hi'
       in
       let cond_slow =
         if !mflag then Float.abs (s -. !b) >= Float.abs (!b -. !c) /. 2.
         else Float.abs (s -. !b) >= Float.abs (!c -. !d) /. 2.
       in
       let cond_tol =
         if !mflag then Float.abs (!b -. !c) < tol else Float.abs (!c -. !d) < tol
       in
       let s =
         if cond_range || cond_slow || cond_tol then begin
           mflag := true;
           (!a +. !b) /. 2.
         end
         else begin
           mflag := false;
           s
         end
       in
       let fs = f s in
       d := !c;
       c := !b;
       fc := !fb;
       if !fa *. fs < 0. then begin
         b := s;
         fb := fs
       end
       else begin
         a := s;
         fa := fs
       end;
       if Float.abs !fa < Float.abs !fb then begin
         let t = !a in
         a := !b;
         b := t;
         let t = !fa in
         fa := !fb;
         fb := t
       end;
       result := !b
     done
   with Exit -> ());
  !result
