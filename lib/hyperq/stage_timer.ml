(** Per-stage timing instrumentation for the translation pipeline.

    The evaluation section of the paper (Figures 6 and 7) breaks query
    processing into translation stages — parse, algebrize (bind + metadata
    lookup), optimize (Xformer), serialize — against total execution time.
    The engine wraps each stage with this module so the benchmarks can
    reproduce both figures; it mirrors the same durations into the
    {!Obs.Metrics} histograms of its observability context. *)

type stage = Parse | Algebrize | Optimize | Serialize | Execute | Pivot

let stage_name = function
  | Parse -> "parse"
  | Algebrize -> "algebrize"
  | Optimize -> "optimize"
  | Serialize -> "serialize"
  | Execute -> "execute"
  | Pivot -> "pivot"

let all_stages = [ Parse; Algebrize; Optimize; Serialize; Execute; Pivot ]

(* one recorded stage run: duration plus the coordinator-domain Gc
   deltas measured across it (0 when the caller only timed) *)
type span = {
  sp_stage : stage;
  sp_seconds : float;
  sp_alloc_bytes : float;
  sp_minor_gcs : int;
}

type t = { mutable spans_rev : span list  (** newest first *) }

let create () = { spans_rev = [] }
let reset t = t.spans_rev <- []

let record_alloc t stage seconds ~alloc_bytes ~minor_gcs =
  t.spans_rev <-
    {
      sp_stage = stage;
      sp_seconds = seconds;
      sp_alloc_bytes = alloc_bytes;
      sp_minor_gcs = minor_gcs;
    }
    :: t.spans_rev

let record t stage seconds =
  record_alloc t stage seconds ~alloc_bytes:0.0 ~minor_gcs:0

(** Run [f] and record its monotonic duration and allocation under
    [stage]. Only the cheap domain-local [Gc.allocated_bytes] delta is
    captured here — the minor-collection delta is process-wide (every
    minor collection stops all domains), so the endpoint takes it once
    per query instead. *)
let timed (t : t) (stage : stage) (f : unit -> 'a) : 'a =
  let start = Obs.Clock.now_ns () in
  let a0 = Gc.allocated_bytes () in
  Fun.protect
    ~finally:(fun () ->
      record_alloc t stage
        (Obs.Clock.seconds_since start)
        ~alloc_bytes:(Gc.allocated_bytes () -. a0)
        ~minor_gcs:0)
    f

let spans t = List.rev_map (fun sp -> (sp.sp_stage, sp.sp_seconds)) t.spans_rev

let full_spans t = List.rev t.spans_rev

(** Total seconds recorded for a stage (a stage may run several times per
    query, e.g. re-algebrization of unrolled functions). *)
let total (t : t) (stage : stage) : float =
  List.fold_left
    (fun acc sp -> if sp.sp_stage = stage then acc +. sp.sp_seconds else acc)
    0.0 t.spans_rev

let alloc_total (t : t) (stage : stage) : float =
  List.fold_left
    (fun acc sp ->
      if sp.sp_stage = stage then acc +. sp.sp_alloc_bytes else acc)
    0.0 t.spans_rev

let minor_gcs_total (t : t) (stage : stage) : int =
  List.fold_left
    (fun acc sp -> if sp.sp_stage = stage then acc + sp.sp_minor_gcs else acc)
    0 t.spans_rev

let translation_total (t : t) : float =
  total t Parse +. total t Algebrize +. total t Optimize +. total t Serialize

let execution_total (t : t) : float = total t Execute
