let src = Logs.Src.create "repro.experiments" ~doc:"experiment sweep progress"

module Log = (val Logs.src_log src : Logs.LOG)

let warn fmt = Format.kasprintf (fun s -> Log.warn (fun m -> m "%s" s)) fmt
let info fmt = Format.kasprintf (fun s -> Log.info (fun m -> m "%s" s)) fmt
let debug fmt = Format.kasprintf (fun s -> Log.debug (fun m -> m "%s" s)) fmt
