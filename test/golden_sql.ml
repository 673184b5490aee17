(* Prints the SQL Hyper-Q emits for a fixed request set: the 25
   analytical queries plus one request per shape of the other four
   hqbench workloads (seed 1). test/dune diffs the output against
   golden_sql.expected, so any change to the generated SQL shows up as
   a reviewed diff; `dune promote` accepts it. *)

module MD = Workload.Marketdata
module W = Hqsuite.Workloads

let print_workload (w : W.t) =
  let d = MD.generate ~seed:1 w.W.scale in
  let db = Pgdb.Db.create () in
  MD.load_pg db d;
  let eng =
    Hyperq.Engine.create
      (Hyperq.Backend.of_pgdb_session (Pgdb.Db.open_session db))
  in
  let run text =
    match Hyperq.Engine.try_run eng text with
    | Ok r -> r.Hyperq.Engine.sqls
    | Error e -> failwith (Printf.sprintf "%s: %s: %s" w.W.name text e)
  in
  List.iter (fun s -> ignore (run s)) (w.W.setup d);
  let reqs = w.W.cycle d (Random.State.make [| 1 |]) in
  Array.iteri
    (fun i (r : W.request) ->
      Printf.printf "-- %s / %s\n-- q) %s\n" w.W.name w.W.shape_names.(i)
        r.W.text;
      List.iter (fun sql -> print_endline sql) (run r.W.text);
      print_newline ())
    reqs

let () = List.iter print_workload W.all
