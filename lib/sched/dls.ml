(* DLS (Sih & Lee 1993) as a framework instance: median static level,
   joint (task, processor) dynamic-level maximization, append-only
   placement. *)

let spec =
  {
    List_scheduler.ranking = Components.Rank_static_level;
    selection = Components.Select_dl;
    insertion = Components.Append;
    tie = Components.Tie_ready;
  }

let schedule graph platform = List_scheduler.run spec graph platform
