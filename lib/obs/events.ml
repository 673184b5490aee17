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
  (sink, fun () -> Mutex.protect sink.s_mu (fun () -> List.rev !captured))

let set_writer sink w =
  Mutex.lock sink.s_mu;
  sink.write <- Some w;
  Mutex.unlock sink.s_mu

let write sink line =
  Mutex.protect sink.s_mu (fun () ->
      match sink.write with Some w -> w line | None -> ())

let emit sink fields = write sink (Relation.obj fields)

let query_sha (text : string) : string =
  String.sub (Digest.to_hex (Digest.string text)) 0 16
