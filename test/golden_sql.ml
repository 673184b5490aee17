(* Prints the SQL Hyper-Q emits for a fixed request set: the 25
   analytical queries plus one request per shape of the other four
   hqbench workloads (seed 1), then the sharded_agg shapes again through
   a 2-shard cluster of in-process backends, with each request's route
   class, the SQL every target shard received and the coordinator
   statement run over the shards' results, where the route has one.
   test/dune diffs the output against golden_sql.expected, so any change
   to the generated SQL shows up as a reviewed diff; `dune promote`
   accepts it. *)

module MD = Workload.Marketdata
module W = Hqsuite.Workloads
module E = Hyperq.Engine
module B = Hyperq.Backend
module C = Shard.Cluster
module R = Shard.Router

(* [w]'s setup, then one cycle of its requests (seed 1) on the engine
   [engine db] over freshly loaded data; after each request's header
   (workload [label] and shape name),
   [print run] runs the request ([run ()] returns the SQL the engine
   sent) and prints the entry *)
let each_request ~label (w : W.t) (engine : Pgdb.Db.t -> E.t)
    (print : (unit -> string list) -> unit) =
  let d = MD.generate ~seed:1 w.W.scale in
  let db = Pgdb.Db.create () in
  MD.load_pg db d;
  let eng = engine db in
  let run text =
    match E.try_run eng (Qlang.Fingerprint.analyze text) with
    | Ok r -> r.E.sqls
    | Error e -> failwith (Printf.sprintf "%s: %s: %s" w.W.name text e)
  in
  List.iter (fun s -> ignore (run s)) (w.W.setup d);
  let reqs = w.W.cycle d (Random.State.make [| 1 |]) in
  Array.iteri
    (fun i (r : W.request) ->
      Printf.printf "-- %s / %s\n-- q) %s\n" label w.W.shape_names.(i)
        r.W.text;
      print (fun () -> run r.W.text);
      print_newline ())
    reqs

let print_workload (w : W.t) =
  each_request ~label:w.W.name w
    (fun db -> E.create (B.of_pgdb_session (Pgdb.Db.open_session db)))
    (fun run -> List.iter print_endline (run ()))

let print_sharded (w : W.t) =
  let cluster = ref None and routed = ref None in
  let engine db =
    let c = C.create ~shards:w.W.shards db in
    cluster := Some c;
    let backend = B.of_pgdb_session (Pgdb.Db.open_session db) in
    C.watch_backend c backend;
    let sh = C.sharder c in
    E.create backend
      ~sharder:
        {
          sh with
          E.sh_route =
            (fun rel ->
              routed := Some rel;
              sh.E.sh_route rel);
        }
  in
  let label = Printf.sprintf "%s, %d shards" w.W.name w.W.shards in
  each_request ~label w engine (fun run ->
      let c = Option.get !cluster in
      let backends = C.backends c in
      let marks = Array.map B.log_mark backends in
      routed := None;
      ignore (run ());
      match Option.map (R.route (C.map c)) !routed with
      | None -> print_endline "-- route: not offered to the sharder"
      | Some (R.Coordinator reason) ->
          Printf.printf "-- route: coordinator (%s)\n" reason
      | Some (R.Run (plan, _)) -> (
          Printf.printf "-- route: %s\n" (R.plan_kind plan);
          Array.iteri
            (fun s b ->
              match B.sql_since b marks.(s) with
              | [] -> ()
              | sqls ->
                  Printf.printf "-- shard %d\n" s;
                  List.iter print_endline sqls)
            backends;
          let cols =
            List.map
              (fun c -> (c.Xtra.Ir.cr_name, c.Xtra.Ir.cr_type))
              (Xtra.Ir.output_cols (R.shard_rel plan))
          in
          match Shard.Gather.statement plan cols with
          | Some rel ->
              print_endline "-- coordinator";
              print_endline (Hyperq.Serializer.serialize_to_sql rel)
          | None -> ()));
  Option.iter C.shutdown !cluster

let () =
  List.iter print_workload W.all;
  print_sharded W.sharded_agg
