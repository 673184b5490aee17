type attr = Int of int | Float of float | Str of string

type span = {
  sp_name : string;
  sp_id : string;  (** 8-byte hex span id (W3C trace context) *)
  sp_start : int64;
  mutable sp_end : int64;  (** equals [sp_start] while open *)
  mutable sp_attrs_rev : (string * attr) list;
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

let needs_json_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let add_json_escaped buf s =
  (* fast path: most payloads (ids, level names, SQL without quotes)
     need no escaping, so scan once before touching the buffer *)
  let n = String.length s in
  let clean = ref true in
  let i = ref 0 in
  while !clean && !i < n do
    if needs_json_escape (String.unsafe_get s !i) then clean := false;
    incr i
  done;
  if !clean then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

let json_escape s =
  if String.exists needs_json_escape s then begin
    let buf = Buffer.create (String.length s + 2) in
    add_json_escaped buf s;
    Buffer.contents buf
  end
  else s

(* non-finite floats have no JSON literal: NaN becomes null, the
   infinities become strings, so every emitted document stays parseable *)
external format_float : string -> float -> string = "caml_format_float"

let float_json f =
  if Float.is_nan f then "null"
  else if f = Float.infinity then "\"inf\""
  else if f = Float.neg_infinity then "\"-inf\""
  else
    (* the primitive behind string_of_float, which beats Printf here;
       15 significant digits keep a wall-clock timestamp to 10 us and
       never show binary noise. Whole numbers get the ".0" that
       marks them as floats *)
    let s = format_float "%.15g" f in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let attr_json = function
  | Int i -> string_of_int i
  | Float f -> float_json f
  | Str s -> Printf.sprintf "\"%s\"" (json_escape s)

let rec to_json sp =
  let attrs_part =
    match attrs sp with
    | [] -> ""
    | ls ->
        Printf.sprintf ",\"attrs\":{%s}"
          (String.concat ","
             (List.map
                (fun (k, v) ->
                  Printf.sprintf "\"%s\":%s" (json_escape k) (attr_json v))
                ls))
  in
  let children_part =
    match children sp with
    | [] -> ""
    | cs ->
        Printf.sprintf ",\"spans\":[%s]"
          (String.concat "," (List.map to_json cs))
  in
  Printf.sprintf "{\"name\":\"%s\",\"us\":%.1f%s%s}" (json_escape sp.sp_name)
    (duration_s sp *. 1e6)
    attrs_part children_part
