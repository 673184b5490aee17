type span = {
  sp_name : string;
  sp_id : string;  (** 8-byte hex span id (W3C trace context) *)
  sp_start : int64;
  mutable sp_end : int64;  (** equals [sp_start] while open *)
  mutable sp_attrs_rev : (string * Relation.cell) list;
  mutable sp_children_rev : span list;
}

type t = {
  trace_id : string;  (** 16-byte hex trace id shared by every span *)
  root : span;
  mutable stack : span list;  (** innermost first *)
}

(* ------------------------------------------------------------------ *)
(* W3C-style identifiers                                               *)
(* ------------------------------------------------------------------ *)

(* splitmix64: cheap, allocation-free per step, and good enough mixing
   that concurrently started proxies (seeded by wall clock + pid) do not
   collide in practice. The state is an Atomic because shard worker
   domains generate ids concurrently with the coordinator. *)
let rng_state =
  Atomic.make
    (Int64.logxor
       (Int64.of_float (Unix.gettimeofday () *. 1e6))
       (Int64.mul (Int64.of_int (Unix.getpid ())) 0x9E3779B9L))

let rec next_state () =
  let cur = Atomic.get rng_state in
  let z = Int64.add cur 0x9E3779B97F4A7C15L in
  if Atomic.compare_and_set rng_state cur z then z else next_state ()

let next_id64 () =
  let z = next_state () in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* ids are generated on every traced query, so encode hex by hand
   rather than through Printf *)
let hex_digits = "0123456789abcdef"

let blit_hex16 (b : Bytes.t) (off : int) (v : int64) =
  for i = 0 to 15 do
    let nib =
      Int64.to_int (Int64.logand (Int64.shift_right_logical v ((15 - i) * 4)) 0xFL)
    in
    Bytes.unsafe_set b (off + i) (String.unsafe_get hex_digits nib)
  done

let gen_span_id () =
  let b = Bytes.create 16 in
  blit_hex16 b 0 (next_id64 ());
  Bytes.unsafe_to_string b

let gen_trace_id () =
  let b = Bytes.create 32 in
  blit_hex16 b 0 (next_id64 ());
  blit_hex16 b 16 (next_id64 ());
  Bytes.unsafe_to_string b

(** [traceparent] header value (W3C trace context, version 00, sampled). *)
let traceparent ~trace_id ~span_id = "00-" ^ trace_id ^ "-" ^ span_id ^ "-01"

let mk_span name =
  let now = Clock.now_ns () in
  {
    sp_name = name;
    sp_id = gen_span_id ();
    sp_start = now;
    sp_end = now;
    sp_attrs_rev = [];
    sp_children_rev = [];
  }

let start name =
  let root = mk_span name in
  { trace_id = gen_trace_id (); root; stack = [ root ] }

let trace_id t = t.trace_id

let current t = match t.stack with s :: _ -> s | [] -> t.root

let enter t name =
  let sp = mk_span name in
  let parent = current t in
  parent.sp_children_rev <- sp :: parent.sp_children_rev;
  t.stack <- sp :: t.stack

let close sp =
  let now = Clock.now_ns () in
  (* monotonic source, but clamp anyway: a span must never be negative *)
  sp.sp_end <- (if Int64.compare now sp.sp_start < 0 then sp.sp_start else now)

let exit_span t =
  match t.stack with
  | sp :: (_ :: _ as rest) ->
      close sp;
      t.stack <- rest
  | _ -> ()

let with_span t name f =
  enter t name;
  Fun.protect ~finally:(fun () -> exit_span t) f

(* cross-domain propagation: the coordinator creates the child span (a
   single-writer append onto its own open span) but does NOT push it on
   the stack — the span is handed to a worker domain, which is then the
   only mutator of that subtree until the pool's completion latch
   publishes it back *)
let open_child t name =
  let sp = mk_span name in
  let parent = current t in
  parent.sp_children_rev <- sp :: parent.sp_children_rev;
  sp

let close_span sp = close sp

(** A trace handle rooted at an already-attached [span], sharing
    [trace_id]: what a worker domain carries so nested spans, span
    attributes and the Gateway's [traceparent] stamp all land on the
    per-shard child span instead of the coordinator's mutable stack. *)
let attach ~trace_id span = { trace_id; root = span; stack = [ span ] }

let add_attr t k v =
  let sp = current t in
  sp.sp_attrs_rev <- (k, v) :: sp.sp_attrs_rev

let add_root_attr t k v = t.root.sp_attrs_rev <- (k, v) :: t.root.sp_attrs_rev

let set_span_attr sp k v = sp.sp_attrs_rev <- (k, v) :: sp.sp_attrs_rev

let finish t =
  List.iter close t.stack;
  t.stack <- [];
  t.root

let finished ~name ~span_id ~start_ns ~end_ns attrs children =
  {
    sp_name = name;
    sp_id = span_id;
    sp_start = start_ns;
    sp_end = end_ns;
    sp_attrs_rev = List.rev attrs;
    sp_children_rev = List.rev children;
  }

let name sp = sp.sp_name
let span_id sp = sp.sp_id
let start_ns sp = sp.sp_start
let children sp = List.rev sp.sp_children_rev
let attrs sp = List.rev sp.sp_attrs_rev
let duration_ns sp = Int64.sub sp.sp_end sp.sp_start
let duration_s sp = Clock.ns_to_s (duration_ns sp)

let rec find sp n =
  if sp.sp_name = n then Some sp
  else
    List.fold_left
      (fun acc c -> match acc with Some _ -> acc | None -> find c n)
      None (children sp)

let totals sp names =
  let sums = Array.make (List.length names) 0.0 in
  let rec walk sp =
    (match List.find_index (String.equal sp.sp_name) names with
    | Some i -> sums.(i) <- sums.(i) +. duration_s sp
    | None -> ());
    List.iter walk sp.sp_children_rev
  in
  walk sp;
  List.mapi (fun i n -> (n, sums.(i))) names

(* [us] keeps the one decimal the tree has always printed, rounded as
   [%.1f] rounds *)
let rec to_json sp =
  let us = float_of_string (Printf.sprintf "%.1f" (duration_s sp *. 1e6)) in
  let attrs =
    match attrs sp with
    | [] -> []
    | ls -> [ ("attrs", Relation.Json (Relation.obj ls)) ]
  in
  let spans =
    match children sp with
    | [] -> []
    | cs ->
        let tree c = Relation.Json (to_json c) in
        [ ("spans", Relation.Json (Relation.arr (List.map tree cs))) ]
  in
  Relation.obj
    ((("name", Relation.Str sp.sp_name) :: ("us", Relation.Float us) :: attrs)
    @ spans)
