(** XC — the Cross Compiler (paper Section 3.4, Figure 4).

    Two cooperating finite state machines:

    - {b PT} (Protocol Translator) owns message handling: it extracts
      queries from incoming protocol messages and formats outgoing result
      messages;
    - {b QT} (Query Translator) owns query-language handling: algebrize →
      optimize → serialize, handing generated SQL back to PT for dispatch.

    Both are event-driven with an explicit queue, giving the re-entrance
    the paper describes: heavy work (serializing large SQL, executing PG
    queries) happens inside a state, and completion events trigger the
    next transition. The [AwaitingBackend] state is entered exactly while
    a backend round trip is in flight — observed by wrapping the backend's
    [exec]. *)

type pt_state =
  | PT_Idle
  | PT_Parsing_request
  | PT_Awaiting_translation
  | PT_Awaiting_backend
  | PT_Translating_results
  | PT_Responding

type qt_state = QT_Idle | QT_Translating

let pt_state_name = function
  | PT_Idle -> "idle"
  | PT_Parsing_request -> "parsing_request"
  | PT_Awaiting_translation -> "awaiting_translation"
  | PT_Awaiting_backend -> "awaiting_backend"
  | PT_Translating_results -> "translating_results"
  | PT_Responding -> "responding"

type event =
  | Query_arrived of string
  | Request_parsed of string
  | Translation_done of (Qvalue.Value.t option, string) result
  | Response_sent

type t = {
  engine : Hyperq.Engine.t;
  events : event Queue.t;
  mutable pt : pt_state;
  mutable qt : qt_state;
  mutable transitions : string list;
      (** the states of the request in flight (or the last one), newest
          first; {!process} starts it afresh *)
  mutable pending_result : (Qvalue.Value.t option, string) result option;
}

let transition (t : t) (s : pt_state) =
  t.pt <- s;
  t.transitions <- pt_state_name s :: t.transitions

(** Create an XC over an engine whose backend is instrumented so that PT
    enters [AwaitingBackend] for the duration of each backend call. *)
let create (make_engine : Hyperq.Backend.t -> Hyperq.Engine.t)
    (backend : Hyperq.Backend.t) : t =
  let t_ref = ref None in
  let instrumented =
    {
      backend with
      Hyperq.Backend.exec =
        (fun sql ->
          (match !t_ref with
          | Some t when t.pt <> PT_Awaiting_backend ->
              transition t PT_Awaiting_backend
          | _ -> ());
          let r = backend.Hyperq.Backend.exec sql in
          Option.iter (fun t -> transition t PT_Awaiting_translation) !t_ref;
          r);
    }
  in
  let t =
    {
      engine = make_engine instrumented;
      events = Queue.create ();
      pt = PT_Idle;
      qt = QT_Idle;
      transitions = [ "idle" ];
      pending_result = None;
    }
  in
  t_ref := Some t;
  t

(** Process one event; returns [false] when the queue is empty. *)
let step (t : t) : bool =
  match Queue.take_opt t.events with
  | None -> false
  | Some ev ->
      (match ev with
      | Query_arrived raw ->
          transition t PT_Parsing_request;
          (* PT extracts the query text from the protocol message; here the
             endpoint has already unwrapped QIPC so the text passes through *)
          Queue.add (Request_parsed raw) t.events
      | Request_parsed text ->
          transition t PT_Awaiting_translation;
          t.qt <- QT_Translating;
          (* QT: algebrize, optimize, serialize, execute; backend calls flip
             PT into Awaiting_backend via the instrumented backend *)
          let result =
            match Hyperq.Engine.try_run t.engine text with
            | Ok { Hyperq.Engine.value; _ } -> Ok value
            | Error e -> Error e
          in
          t.qt <- QT_Idle;
          Queue.add (Translation_done result) t.events
      | Translation_done result ->
          transition t PT_Translating_results;
          t.pending_result <- Some result;
          Queue.add Response_sent t.events
      | Response_sent -> transition t PT_Responding);
      true

(** Submit a query and run the FSMs until the response is ready. *)
let process (t : t) (source : string) : (Qvalue.Value.t option, string) result
    =
  t.pending_result <- None;
  t.transitions <- [ pt_state_name t.pt ];
  Queue.add (Query_arrived source) t.events;
  while step t do
    ()
  done;
  transition t PT_Idle;
  match t.pending_result with
  | Some r -> r
  | None -> Error "cross compiler produced no result"

let transitions (t : t) = List.rev t.transitions
let engine (t : t) = t.engine
