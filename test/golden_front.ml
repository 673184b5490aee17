(* Prints what Hyper-Q's front end makes of a fixed request set, the
   request texts of golden_sql (the 25 analytical queries plus one
   request per shape of the other four hqbench workloads, seed 1): per
   text its normalized shape, fingerprint, top-level statement count and
   plan-cache literal signature, then the plan-cache outcome of two runs
   on one engine and the shape's cache entry (template, structural
   positions or the reason it is uncacheable). test/dune diffs the
   output against golden_front.expected, so a change to fingerprints or
   to how templates are cut shows up as a reviewed diff; `dune promote`
   accepts it. *)

module MD = Workload.Marketdata
module W = Hqsuite.Workloads
module E = Hyperq.Engine
module B = Hyperq.Backend
module PC = Hyperq.Plancache
module F = Qlang.Fingerprint

let outcome eng text =
  match E.try_run eng (F.analyze text) with
  | Ok _ -> (
      match E.last_note eng with
      | Some n -> n.E.pn_cache
      | None -> "none")
  | Error e -> "error " ^ e

(* the kind of the shape entry (not a structural position's template) *)
let shape_entry pc fp =
  match
    List.filter
      (fun e -> e.PC.e_key.PC.k_fingerprint = fp && e.PC.e_key.PC.k_struct = "")
      (PC.entries pc)
  with
  | [] -> "none"
  | es ->
      String.concat " | "
        (List.map
           (fun e ->
             match e.PC.e_kind with
             | PC.Template tpl ->
                 Printf.sprintf "template, %d slots"
                   (Array.length tpl.PC.tp_slots)
             | k -> PC.kind_name k)
           es)

let print_workload (w : W.t) =
  let d = MD.generate ~seed:1 w.W.scale in
  let db = Pgdb.Db.create () in
  MD.load_pg db d;
  let pc = PC.create () in
  let eng = E.create ~plan_cache:pc (B.of_pgdb_session (Pgdb.Db.open_session db)) in
  List.iter (fun s -> ignore (E.try_run eng (F.analyze s))) (w.W.setup d);
  let reqs = w.W.cycle d (Random.State.make [| 1 |]) in
  Array.iteri
    (fun i (r : W.request) ->
      let text = r.W.text in
      let an = F.analyze text in
      Printf.printf "-- %s / %s\n-- q) %s\n" w.W.name w.W.shape_names.(i) text;
      Printf.printf "norm: %s\nfingerprint: %s\nstatements: %d\n" an.F.a_norm
        an.F.a_fingerprint an.F.a_statements;
      Printf.printf "signature: %s\n"
        (match PC.signature an with
        | Some (sg, params) ->
            Printf.sprintf "%S (%d params)" sg (Array.length params)
        | None -> "none");
      let first = outcome eng text in
      let second = outcome eng text in
      Printf.printf "runs: %s, %s\nentry: %s\n\n" first second
        (shape_entry pc an.F.a_fingerprint))
    reqs

let () = List.iter print_workload W.all
