(* BIL (Oh & Ha 1996) as a framework instance: the basic imaginary
   makespan BIM*(t, p) = EST(t, p) + BIL(t, p) drives a row-quantile
   task priority and a row-argmin processor pick, append-only
   placement. *)

let spec =
  {
    List_scheduler.ranking = Components.Rank_bil;
    selection = Components.Select_bim;
    insertion = Components.Append;
    tie = Components.Tie_ready;
  }

let schedule graph platform = List_scheduler.run spec graph platform
