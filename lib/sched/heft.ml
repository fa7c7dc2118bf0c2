(* HEFT (Topcuoglu et al. 2002) as a framework instance: upward rank
   under the chosen cost collapse, EFT processor selection, insertion-
   based placement. The legacy static-list formulation is equivalent to
   the ready-queue driver with lower-id tie-breaks: upward rank strictly
   decreases along edges, so the highest-ranked unscheduled task is
   always ready. *)

type rank_policy = Components.collapse

let spec ?(rank = `Mean) () =
  {
    List_scheduler.ranking = Components.Rank_upward rank;
    selection = Components.Select_eft;
    insertion = Components.Insert;
    tie = Components.Tie_id;
  }

let schedule ?(rank = `Mean) graph platform =
  List_scheduler.run (spec ~rank ()) graph platform
