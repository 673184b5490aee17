(** Per-stage timing instrumentation for the translation pipeline.

    The evaluation section of the paper (Figures 6 and 7) breaks query
    processing into translation stages — parse, algebrize (bind + metadata
    lookup), optimize (Xformer), serialize — against total execution time.
    The engine records each stage here so the benchmarks can reproduce
    both figures; it mirrors the same durations into the {!Obs.Metrics}
    histograms of its observability context. *)

type stage = Parse | Algebrize | Optimize | Serialize | Execute | Pivot

let stage_name = function
  | Parse -> "parse"
  | Algebrize -> "algebrize"
  | Optimize -> "optimize"
  | Serialize -> "serialize"
  | Execute -> "execute"
  | Pivot -> "pivot"

let all_stages = [ Parse; Algebrize; Optimize; Serialize; Execute; Pivot ]

let index = function
  | Parse -> 0
  | Algebrize -> 1
  | Optimize -> 2
  | Serialize -> 3
  | Execute -> 4
  | Pivot -> 5

(* seconds per stage, indexed by [index] *)
type t = float array

let create () = Array.make (List.length all_stages) 0.0
let reset t = Array.fill t 0 (Array.length t) 0.0
let record t stage seconds = t.(index stage) <- t.(index stage) +. seconds
let total t stage = t.(index stage)

let translation_total t =
  total t Parse +. total t Algebrize +. total t Optimize +. total t Serialize

let execution_total t = total t Execute
