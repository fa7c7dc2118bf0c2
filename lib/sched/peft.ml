(* PEFT (Arabnejad & Barbosa 2014) as a framework instance: the
   optimistic cost table OCT(t, p) — the best-case remaining work after
   running t on p — yields the task priority (row average) and biases
   processor selection towards placements with cheap futures
   (minimize EFT + OCT). *)

let spec =
  {
    List_scheduler.ranking = Components.Rank_oct;
    selection = Components.Select_oeft;
    insertion = Components.Insert;
    tie = Components.Tie_id;
  }

let schedule graph platform = List_scheduler.run spec graph platform
