(* CPOP (Topcuoglu et al. 2002) as a framework instance: priority is
   upward + downward rank, critical-path tasks are pinned to the
   processor minimizing the whole path's execution time, everything else
   goes to its EFT processor with insertion. *)

let spec =
  {
    List_scheduler.ranking = Components.Rank_updown `Mean;
    selection = Components.Select_cp_pin;
    insertion = Components.Insert;
    tie = Components.Tie_ready;
  }

let schedule graph platform = List_scheduler.run spec graph platform
