type field =
  | Int of int
  | Float of float
  | Str of string
  | Obj of (string * field) list
  | Raw of string

(* the sink is shared by the coordinator and shard worker domains; the
   mutex serializes whole lines so concurrent emits never interleave *)
type sink = { mutable write : (string -> unit) option; s_mu : Mutex.t }

let create ?write () = { write; s_mu = Mutex.create () }
let active sink = Option.is_some sink.write

let memory () =
  let captured = ref [] in
  let sink =
    {
      write = Some (fun line -> captured := line :: !captured);
      s_mu = Mutex.create ();
    }
  in
  ( sink,
    fun () ->
      Mutex.lock sink.s_mu;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock sink.s_mu)
        (fun () -> List.rev !captured) )

let set_writer sink w =
  Mutex.lock sink.s_mu;
  sink.write <- Some w;
  Mutex.unlock sink.s_mu

(* rendered straight into one buffer: a log line fires per query, so
   avoid the per-field sprintf/concat garbage a naive renderer makes *)
let rec add_field buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      (* NaN/infinity have no JSON literal; Trace.float_json degrades
         them to null / "inf" / "-inf" so the line stays parseable *)
      Buffer.add_string buf (Trace.float_json f)
  | Str s ->
      Buffer.add_char buf '"';
      Trace.add_json_escaped buf s;
      Buffer.add_char buf '"'
  | Obj fields -> add_obj buf fields
  | Raw s -> Buffer.add_string buf s

and add_obj buf fields =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '"';
      Trace.add_json_escaped buf k;
      Buffer.add_string buf "\":";
      add_field buf v)
    fields;
  Buffer.add_char buf '}'

let field_json f =
  let buf = Buffer.create 64 in
  add_field buf f;
  Buffer.contents buf

let obj_json fields =
  let buf = Buffer.create 128 in
  add_obj buf fields;
  Buffer.contents buf

let write sink line =
  Mutex.lock sink.s_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock sink.s_mu)
    (fun () -> match sink.write with Some w -> w line | None -> ())

let emit sink fields = write sink (obj_json fields)

let query_sha (text : string) : string =
  String.sub (Digest.to_hex (Digest.string text)) 0 16
