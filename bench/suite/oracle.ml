(* The correctness check: the kdb interpreter is the semantic reference
   (paper Section 5). A replay sends requests through a fresh platform
   connection and through a kdb interpreter loaded with the same data,
   and compares every reply. *)

module QV = Qvalue.Value
module MD = Workload.Marketdata
module P = Platform.Hyperq_platform

(* what the endpoint answers to an assignment or a definition *)
let unit_reply = QV.List [||]

(** [None] when the platform's reply [hq] to [r] is right, given the
    kdb interpreter's answer [kdb]; otherwise the reason. *)
let judge (r : Workloads.request) ~(kdb : (QV.t, string) result)
    ~(hq : (QV.t, string) result) : string option =
  match (hq, kdb) with
  | Error e, _ -> Some ("platform error: " ^ e)
  | Ok _, Error e -> Some ("kdb error: " ^ e)
  | Ok v, Ok _ when r.Workloads.unit_reply ->
      if v = unit_reply then None else Some "expected the unit reply"
  | Ok v, Ok k ->
      Option.map
        (fun d -> "differs from kdb: " ^ d)
        (Sidebyside.Framework.values_agree k v)

(** Replay [setup] (as definitions) and then [reqs] on a fresh
    connection to [platform] and on a kdb interpreter loaded from [d].
    Returns the mismatches as [(request text, reason)], in order. *)
let check (platform : P.t) (d : MD.dataset) ~(setup : string list)
    (reqs : Workloads.request array) : (string * string) list =
  let kdb = Kdb.Server.create () in
  List.iter (fun (name, v) -> Kdb.Server.load kdb name v) (MD.q_tables d);
  let client = P.Client.connect platform in
  Fun.protect
    ~finally:(fun () -> P.Client.close client)
    (fun () ->
      let replay = List.map Workloads.assign setup @ Array.to_list reqs in
      List.filter_map
        (fun (r : Workloads.request) ->
          let kdb = Kdb.Server.query kdb ~client:0 r.Workloads.text in
          let hq = P.Client.query client r.Workloads.text in
          Option.map (fun why -> (r.Workloads.text, why)) (judge r ~kdb ~hq))
        replay)
