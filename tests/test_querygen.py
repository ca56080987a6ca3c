"""Prompt assembly, completion parsing, generation fan-out, and the mock endpoint."""

import http.client
import io
import json
import random
import sys
import threading
import time
from urllib.parse import urlsplit

import pytest

from rankforge import httpclient, querygen
from rankforge.config import PipelineConfig
from rankforge.errors import (
    AccessDeniedError,
    AggregateGenerationError,
    EmptyQueryError,
    EndpointError,
    FormatError,
    InvalidConfigError,
    TemplateError,
)
from rankforge.httpclient import HttpCompletionClient
from rankforge.mockllm import MockLLMServer, _Handler
from rankforge.querygen import (
    FewShotExample,
    MockCompletionClient,
    PromptTemplate,
    QueryPrompt,
    SyntheticQuery,
    builtin_examples_path,
    builtin_template_path,
    build_prompt,
    deterministic_completion,
    generate_queries,
    load_examples,
    load_queries,
    load_template,
    make_client,
    parse_completion,
    save_queries,
    truncate_at_whitespace,
)

TMPL = PromptTemplate(
    preamble="Write a query.",
    example_block_format="Document: {document}\nRelevant Query: {query}",
    target_block_format="Document: {document}\nRelevant Query:",
    example_separator="\n\n",
)
EXAMPLES = [
    FewShotExample(document_text="doc one", query="query one"),
    FewShotExample(document_text="doc two", query="query two"),
]


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    monkeypatch.setattr(httpclient, "BACKOFF_BASE", 0.0)


@pytest.fixture(autouse=True)
def no_proxy_settings(monkeypatch):
    # requests go straight to the local mock unless a test sets a proxy
    for scheme in ("http", "https", "no"):
        monkeypatch.delenv(f"{scheme}_proxy", raising=False)
        monkeypatch.delenv(f"{scheme.upper()}_PROXY", raising=False)


def _settings(**kw) -> PipelineConfig:
    base = dict(shots=2, max_doc_chars=2048, max_retries=0)
    base.update(kw)
    return PipelineConfig(**base)


# ------------------------------------------------------------ prompt building

def test_build_prompt_layout():
    prompt = build_prompt(TMPL, EXAMPLES, "the target document", _settings())
    blocks = prompt.split("\n\n")
    assert blocks[0] == "Write a query."
    assert blocks[1] == "Document: doc one\nRelevant Query: query one"
    assert blocks[2] == "Document: doc two\nRelevant Query: query two"
    assert blocks[3] == "Document: the target document\nRelevant Query:"
    assert prompt.endswith("Relevant Query:")


def test_build_prompt_zero_shot_and_empty_preamble():
    tmpl = PromptTemplate(preamble="", example_block_format="{document} -> {query}",
                          target_block_format="{document} ->", example_separator="\n")
    prompt = build_prompt(tmpl, [], "just this", _settings(shots=0))
    assert prompt == "just this ->"


def test_build_prompt_requires_matching_shot_count():
    with pytest.raises(InvalidConfigError):
        build_prompt(TMPL, EXAMPLES, "doc", _settings(shots=3))


def test_build_prompt_validates_slots():
    bad_target = PromptTemplate("p", "{document} {query}", "no slot here", "\n")
    with pytest.raises(TemplateError):
        build_prompt(bad_target, [], "doc", _settings(shots=0))
    double = PromptTemplate("p", "{document} {query}", "{document} {document}", "\n")
    with pytest.raises(TemplateError):
        build_prompt(double, [], "doc", _settings(shots=0))
    bad_example = PromptTemplate("p", "{document} only", "{document}", "\n")
    with pytest.raises(TemplateError):
        build_prompt(bad_example, EXAMPLES, "doc", _settings())


def test_build_prompt_does_not_rescan_substituted_text():
    sneaky = [FewShotExample(document_text="contains {query} literally", query="q1"),
              FewShotExample(document_text="d2", query="and {document} too")]
    prompt = build_prompt(TMPL, sneaky, "target {query} text", _settings())
    assert "contains {query} literally" in prompt
    assert "and {document} too" in prompt
    assert "target {query} text" in prompt


def test_build_prompt_truncates_target():
    doc = "word " * 1000
    prompt = build_prompt(TMPL, EXAMPLES, doc, _settings(max_doc_chars=50))
    target = prompt.split("\n\n")[-1]
    body = target[len("Document: "):-len("\nRelevant Query:")]
    assert len(body) <= 50
    assert not body.endswith(" ")
    assert all(piece == "word" for piece in body.split())


def test_truncate_at_whitespace_rules():
    assert truncate_at_whitespace("short", 10) == "short"
    assert truncate_at_whitespace("alpha beta gamma", 10) == "alpha beta"
    assert truncate_at_whitespace("alpha beta", 5) == "alpha"
    # the character just past the limit is a boundary: keep the whole cut
    assert truncate_at_whitespace("abcdefghij klm", 10) == "abcdefghij"
    assert truncate_at_whitespace("abcdefghijklm", 5) == "abcde"     # single long token


def _truncate_forward(text: str, limit: int) -> str:
    """The rule as a forward scan over the whole cut: the reference for the backward scan."""
    if len(text) <= limit:
        return text
    if text[limit].isspace():
        return text[:limit].rstrip()
    cut = text[:limit]
    last_ws = -1
    for i, ch in enumerate(cut):
        if ch.isspace():
            last_ws = i
    if last_ws <= 0:
        return cut
    return cut[:last_ws].rstrip()


def test_truncate_at_whitespace_matches_a_forward_scan():
    rng = random.Random(11)
    alphabet = "ab \t\n\u3000\xa0\x1c x\xe9"      # ideographic space, NBSP and FS are str.isspace
    for _ in range(20_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 40)))
        limit = rng.randrange(0, 45)
        assert truncate_at_whitespace(text, limit) == _truncate_forward(text, limit), (text, limit)


# -------------------------------------------------------- completion parsing

def test_parse_completion_cleanup():
    assert parse_completion("  what is x?  ") == "what is x?"
    assert parse_completion('"quoted query"') == "quoted query"
    assert parse_completion(" “smart quotes” \nsecond line") == "smart quotes"
    assert parse_completion("first line\nsecond line") == "first line"
    with pytest.raises(EmptyQueryError):
        parse_completion("")
    with pytest.raises(EmptyQueryError):
        parse_completion('  ""  \nmore')


# ----------------------------------------------------------------- templates

def test_builtin_template_and_examples_load():
    template = load_template(builtin_template_path())
    assert "{document}" in template.target_block_format
    for name in ("wikipedia", "scientific", "finance"):
        examples = load_examples(builtin_examples_path(name))
        assert len(examples) == 3
        assert all(ex.document_text and ex.query for ex in examples)


def test_load_template_missing_field(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"preamble": "x"}), encoding="utf-8")
    with pytest.raises(TemplateError):
        load_template(path)
    fields = json.loads(builtin_template_path().read_text(encoding="utf-8"))
    for bad in ('{"preamble": ', json.dumps(dict(fields, preamble=5)), json.dumps(list(fields))):
        path.write_text(bad, encoding="utf-8")
        with pytest.raises(TemplateError):
            load_template(path)
    path.write_bytes(json.dumps(fields).encode("utf-8") + b"\n\"caf\xe9\"\n")
    with pytest.raises(FormatError, match="line 2: .* is not UTF-8 text"):
        load_template(path)


def test_load_examples_errors(tmp_path):
    path = tmp_path / "ex.jsonl"
    path.write_text('{"document": "d", "query": "q"}\n{"document": "d"}\n', encoding="utf-8")
    with pytest.raises(FormatError) as err:
        load_examples(path)
    assert "line 2" in str(err.value)
    path.write_text('{"document": "", "query": "q"}\n', encoding="utf-8")
    with pytest.raises(FormatError):
        load_examples(path)
    path.write_text('"document query"\n', encoding="utf-8")
    with pytest.raises(FormatError, match="line 1: expected a JSON object"):
        load_examples(path)
    for bad, field in (('{"document": 5, "query": "q"}', "document"),
                       ('{"document": "d", "query": ["q"]}', "query")):
        path.write_text('{"document": "d", "query": "q"}\n' + bad + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match=f"line 2: `{field}` must be a string"):
            load_examples(path)


def test_save_load_queries_roundtrip_keeps_the_raw_completion(tmp_path):
    queries = [SyntheticQuery(doc_id="a", query_text="pruning apple trees",
                              raw_completion=' "Pruning apple trees"\nand more', model_name="m"),
               SyntheticQuery(doc_id="b", query_text="ü query", raw_completion="ü query",
                              model_name="llama")]
    path = tmp_path / "q.jsonl"
    save_queries(queries, path)
    assert load_queries(path) == queries


def test_load_queries_rejects_bad_lines(tmp_path):
    path = tmp_path / "q.jsonl"
    path.write_text('{"doc_id": "a", "query": "q"}\n\n{"doc_id": "b"}\n', encoding="utf-8")
    with pytest.raises(FormatError, match="line 3: `query` is missing"):
        load_queries(path)
    path.write_text('{"doc_id": "a", "query": "q"}\n"doc_id query"\n', encoding="utf-8")
    with pytest.raises(FormatError, match="line 2: expected a JSON object"):
        load_queries(path)
    for bad, field in (('{"doc_id": ["x"], "query": "q"}', "doc_id"),
                       ('{"doc_id": "a", "query": 5}', "query")):
        path.write_text('{"doc_id": "a", "query": "q"}\n' + bad + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match=f"line 2: `{field}` must be a string"):
            load_queries(path)


# ---------------------------------------------------------------- generation

class FlakyClient:
    """Fails the first `failures` calls per prompt, then succeeds."""

    def __init__(self, failures: int):
        self.model = "flaky"
        self.failures = failures
        self.attempts: dict[str, int] = {}
        self.lock = threading.Lock()

    def complete(self, prompt: str, cfg: PipelineConfig) -> str:
        with self.lock:
            seen = self.attempts.get(prompt, 0)
            self.attempts[prompt] = seen + 1
        if seen < self.failures:
            raise EndpointError("transient")
        return "a fine query"


class SelectiveClient:
    """Hard-fails prompts containing FAIL, returns blanks for BLANK."""

    model = "selective"

    def complete(self, prompt: str, cfg: PipelineConfig) -> str:
        if "FAIL" in prompt:
            raise EndpointError("permanent")
        if "BLANK" in prompt:
            return "   \n"
        return f"answer for {prompt.split()[-1]}"


def test_generate_queries_preserves_input_order():
    client = MockCompletionClient()
    prompts = [QueryPrompt(doc_id=f"d{i}", text=f"Document: topic {i} words here\nQuery:")
               for i in range(40)]
    out = generate_queries(client, prompts, _settings(threads=8))
    assert [q.doc_id for q in out] == [p.doc_id for p in prompts]
    assert all(q.query_text for q in out)
    assert all(q.model_name == "mock" for q in out)


def test_generate_queries_drops_failures_and_blanks():
    prompts = [QueryPrompt("ok1", "alpha one"), QueryPrompt("bad", "FAIL two"),
               QueryPrompt("blank", "BLANK three"), QueryPrompt("ok2", "delta four")]
    out = generate_queries(SelectiveClient(), prompts, _settings(threads=2))
    assert [q.doc_id for q in out] == ["ok1", "ok2"]
    assert out[0].query_text == "answer for one"


def test_generate_queries_raises_when_all_fail():
    prompts = [QueryPrompt("a", "FAIL"), QueryPrompt("b", "FAIL")]
    with pytest.raises(AggregateGenerationError) as err:
        generate_queries(SelectiveClient(), prompts, _settings(threads=2))
    assert err.value.failed == 2


def test_generate_queries_empty_input():
    assert generate_queries(MockCompletionClient(), [], _settings()) == []


def test_deterministic_completion_is_stable():
    prompt = "Document: orbit rocket launch pad\nRelevant Query:"
    a = deterministic_completion(prompt)
    assert a == deterministic_completion(prompt)
    assert a.startswith("what is known about")
    assert "orbit" in a and "pad" in a
    assert deterministic_completion("\n") == "placeholder query"


def test_make_client_dispatch():
    assert isinstance(make_client("mock:anything", "m"), MockCompletionClient)
    assert isinstance(make_client("http://example.test/v1", "m"), HttpCompletionClient)


# ------------------------------------------------------------- HTTP endpoint

@pytest.fixture
def connections(monkeypatch):
    """Client addresses of the TCP connections the mock handler accepts."""
    accepted = []
    setup = _Handler.setup

    def counting_setup(self):
        accepted.append(self.client_address)
        setup(self)

    monkeypatch.setattr(_Handler, "setup", counting_setup)
    return accepted


def test_http_client_against_mock_server(connections):
    # more threads than cores and a short switch interval, so workers contend
    # for the client's pool of idle connections
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with MockLLMServer() as server:
            client = HttpCompletionClient(server.endpoint, model="m")
            prompts = [QueryPrompt(f"d{i}", f"Document: alpha beta {i}\nRelevant Query:")
                       for i in range(120)]
            out = generate_queries(client, prompts, _settings(threads=8))
            client.close()
    finally:
        sys.setswitchinterval(interval)
    direct = [deterministic_completion(p.text) for p in prompts]
    assert [q.query_text for q in out] == [parse_completion(t) for t in direct]
    assert 1 <= len(connections) <= 8        # one connection per worker at most


def test_http_client_retries_then_raises():
    client = HttpCompletionClient("http://127.0.0.1:1/nope", model="m")
    with pytest.raises(EndpointError):
        client.complete("prompt", _settings(max_retries=1))


def _post(endpoint: str, body: bytes, headers: dict[str, str]) -> tuple[int, dict, bytes]:
    """One request on a fresh connection: (status, headers, body) of the reply."""
    url = urlsplit(endpoint)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=5)
    try:
        conn.putrequest("POST", url.path)
        for name, value in headers.items():
            conn.putheader(name, value)
        conn.endheaders(body)
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def test_http_client_sends_contract_fields():
    with MockLLMServer() as server:
        body = {"model": "m2", "prompt": "Doc: x y z\nQuery:", "temperature": 0.0,
                "max_tokens": 8, "stop": ["\n"]}
        data = json.dumps(body).encode()
        status, _, reply = _post(server.endpoint, data, {"Content-Length": str(len(data))})
    assert status == 200
    payload = json.loads(reply)
    assert payload["choices"][0]["text"] == deterministic_completion(body["prompt"])
    assert payload["model"] == "m2"
    # a string is one stop sequence, not one per character
    full = deterministic_completion(body["prompt"])
    assert "ab" in full and full.split("ab")[0] != full.split("a")[0]
    with MockLLMServer() as server:
        data = json.dumps(dict(body, stop="ab")).encode()
        status, _, reply = _post(server.endpoint, data, {"Content-Length": str(len(data))})
    assert status == 200
    assert json.loads(reply)["choices"][0]["text"] == full.split("ab")[0]


def test_mock_server_rejects_bad_json():
    cases = [(b"{broken", "7"), (b"[1]", "3"), (b"{}", "abc"), (b"{}", "-5")]
    # stop: a string or a list of non-empty strings
    for stop in (b'[""]', b"[1]", b'""', b"5", b'{"a": 1}'):
        data = b'{"prompt": "p", "stop": ' + stop + b"}"
        cases.append((data, str(len(data))))
    with MockLLMServer() as server:
        for data, length in cases:
            status, headers, _ = _post(server.endpoint, data, {"Content-Length": length})
            assert status == 400, (data, length)
            # the body may be unread, so the connection cannot carry another request
            assert headers.get("Connection") == "close", (data, length)


class _Recording(_Handler):
    """The mock handler, recording each request's target, headers and body."""

    seen: list = []

    def do_POST(self):  # noqa: N802
        length = int(self.headers["Content-Length"])
        self.seen.append((self.path, dict(self.headers), self.rfile.read(length)))
        self.rfile = io.BytesIO(self.seen[-1][2])
        super().do_POST()


@pytest.fixture
def recording(monkeypatch):
    monkeypatch.setattr(_Recording, "seen", [])
    return _Recording


def test_http_client_payload_and_auth_header(recording):
    with MockLLMServer(handler=recording) as server:
        client = HttpCompletionClient(server.endpoint, model="m", api_key="sekret")
        text = client.complete("Doc: x y\nQuery:", _settings(max_new_tokens=9))
        client.close()
    assert text == deterministic_completion("Doc: x y\nQuery:")
    [(path, headers, body)] = recording.seen
    assert path == "/v1/completions"
    assert headers["Authorization"] == "Bearer sekret"
    assert headers["Content-Type"] == "application/json"
    assert json.loads(body) == {"model": "m", "prompt": "Doc: x y\nQuery:", "temperature": 0.0,
                                "max_tokens": 9, "stop": ["\n"]}


def test_http_client_reuses_one_connection(connections):
    with MockLLMServer() as server:
        client = HttpCompletionClient(server.endpoint, model="m")
        for i in range(20):
            assert client.complete(f"Doc: word{i}\nQuery:", _settings()) == \
                deterministic_completion(f"Doc: word{i}\nQuery:")
        client.close()
    assert len(connections) == 1


def test_http_client_kept_alive_requests_do_not_stall():
    # with Nagle's algorithm on the server, each reply's body waits for the
    # client's delayed ACK: 50 requests then take more than 2 s
    with MockLLMServer() as server:
        client = HttpCompletionClient(server.endpoint, model="m")
        client.complete("warm up", _settings())
        start = time.perf_counter()
        for i in range(50):
            client.complete(f"Doc: word{i}\nQuery:", _settings())
        elapsed = time.perf_counter() - start
        client.close()
    assert elapsed < 1.0


class _Http10(_Handler):
    """Answers as HTTP/1.0 and says it closes the connection after each reply."""

    protocol_version = "HTTP/1.0"

    def end_headers(self):
        self.send_header("Connection", "close")
        super().end_headers()


class _SilentClose(_Handler):
    """Closes the connection after each reply without saying so."""

    def _reply(self, status, obj):
        super()._reply(status, obj)
        self.close_connection = True


@pytest.mark.parametrize("handler", [_Http10, _SilentClose])
def test_http_client_survives_servers_that_close(handler, monkeypatch):
    sleeps = []
    monkeypatch.setattr(httpclient.time, "sleep", sleeps.append)
    with MockLLMServer(handler=handler) as server:
        client = HttpCompletionClient(server.endpoint, model="m")
        for i in range(5):
            # no retries: a dropped kept-alive connection is resent, not retried
            assert client.complete(f"Doc: word{i}\nQuery:", _settings(max_retries=0)) == \
                deterministic_completion(f"Doc: word{i}\nQuery:")
        client.close()
    assert sleeps == []


@pytest.mark.parametrize("status, requests", [
    (401, 1), (404, 1), (400, 1), (408, 3), (429, 3), (503, 3), (500, 3),
])
def test_http_client_retries_only_what_retrying_can_fix(status, requests, monkeypatch):
    seen = []

    class Scripted(_Handler):
        def do_POST(self):  # noqa: N802
            seen.append(self.rfile.read(int(self.headers["Content-Length"])))
            self._reply(status, {"error": "scripted"})

    sleeps = []
    monkeypatch.setattr(httpclient, "BACKOFF_BASE", 0.5)
    monkeypatch.setattr(httpclient.time, "sleep", sleeps.append)
    with MockLLMServer(handler=Scripted) as server:
        client = HttpCompletionClient(server.endpoint, model="m")
        with pytest.raises(EndpointError, match=f"HTTP {status}"):
            client.complete("prompt", _settings(max_retries=2))
        client.close()
    assert len(seen) == requests
    assert sleeps == [0.5, 1.0][: requests - 1]


@pytest.mark.parametrize("status, threads", [(401, 2), (403, 2), (401, 8)])
def test_generate_stops_at_the_first_refused_credential(status, threads, monkeypatch):
    # a refused key fails every prompt alike: each worker sends at most one request.
    # Eight workers on a short switch interval race to take the next prompt.
    seen = []

    class Refusing(_Handler):
        def do_POST(self):  # noqa: N802
            seen.append(self.rfile.read(int(self.headers["Content-Length"])))
            self._reply(status, {"error": "bad key"})

    monkeypatch.setattr(httpclient.time, "sleep", lambda seconds: None)
    prompts = [QueryPrompt(f"d{i}", f"prompt {i}") for i in range(20)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with MockLLMServer(handler=Refusing) as server:
            client = HttpCompletionClient(server.endpoint, model="m")
            with pytest.raises(AccessDeniedError, match=f"HTTP {status}"):
                generate_queries(client, prompts, _settings(threads=threads, max_retries=3))
            client.close()
    finally:
        sys.setswitchinterval(interval)
    assert 1 <= len(seen) <= threads


@pytest.mark.parametrize("choice", [{}, {"text": None}, {"text": 5}, {"text": ["q"]}])
def test_http_client_retries_a_reply_without_a_string_completion(choice, monkeypatch):
    # a 200 whose completion is missing or not a string is retried, then dropped and logged
    seen = []

    class Malformed(_Handler):
        def do_POST(self):  # noqa: N802
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            seen.append(body["prompt"])
            text = body["prompt"] if body["prompt"].startswith("good") else None
            self._reply(200, {"choices": [choice if text is None else {"text": text}]})

    sleeps = []
    monkeypatch.setattr(httpclient, "BACKOFF_BASE", 0.5)
    monkeypatch.setattr(httpclient.time, "sleep", sleeps.append)
    prompts = [QueryPrompt("a", "good one"), QueryPrompt("b", "bad"), QueryPrompt("c", "good two")]
    with MockLLMServer(handler=Malformed) as server:
        client = HttpCompletionClient(server.endpoint, model="m")
        out = generate_queries(client, prompts, _settings(max_retries=2, threads=1))
        assert [(q.doc_id, q.query_text) for q in out] == [("a", "good one"), ("c", "good two")]
        assert seen.count("bad") == 3 and sleeps == [0.5, 1.0]
        with pytest.raises(AggregateGenerationError):
            generate_queries(client, prompts[1:2] * 2, _settings(max_retries=2, threads=1))
        client.close()
    assert seen.count("bad") == 9


@pytest.mark.parametrize("choice, error", [
    ({}, "KeyError: 'text'"),
    ({"text": None}, "TypeError: completion text is NoneType, not a string"),
])
def test_http_client_failure_names_the_exception_type(choice, error, monkeypatch):
    class Malformed(_Handler):
        def do_POST(self):  # noqa: N802
            self.rfile.read(int(self.headers["Content-Length"]))
            self._reply(200, {"choices": [choice]})

    monkeypatch.setattr(httpclient.time, "sleep", lambda seconds: None)
    with MockLLMServer(handler=Malformed) as server:
        client = HttpCompletionClient(server.endpoint, model="m")
        with pytest.raises(EndpointError) as failure:
            client.complete("prompt", _settings(max_retries=1))
        client.close()
    assert str(failure.value) == f"request failed after 2 attempts: {error}"


def test_http_client_timeout_is_per_request():
    class Slow(_Handler):
        def do_POST(self):  # noqa: N802
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            if body["prompt"] == "slow":
                time.sleep(1.0)
            self._reply(200, {"choices": [{"text": body["prompt"]}]})

    with MockLLMServer(handler=Slow) as server:
        client = HttpCompletionClient(server.endpoint, model="m")
        assert client.complete("fast", _settings(request_timeout=30.0)) == "fast"
        # the kept-alive connection now waits at most 0.1 s for each read
        start = time.perf_counter()
        with pytest.raises(EndpointError, match="timed out"):
            client.complete("slow", _settings(max_retries=1, request_timeout=0.1))
        client.close()
    assert time.perf_counter() - start < 0.9


def test_mock_server_ignores_a_client_that_hung_up(capfd):
    replied = threading.Event()

    class Late(_Handler):
        def do_POST(self):  # noqa: N802
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            if body["prompt"] == "slow":
                time.sleep(0.3)
            try:
                self._reply(200, {"choices": [{"text": body["prompt"]}]})
            finally:
                replied.set()

    with MockLLMServer(handler=Late) as server:
        url = urlsplit(server.endpoint)
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=0.05)
        conn.request("POST", url.path, body=b'{"prompt": "slow"}')
        with pytest.raises(TimeoutError):
            conn.getresponse()
        conn.close()                    # gone before the reply is written
        assert replied.wait(5)
        replied.clear()
        status, _, reply = _post(server.endpoint, b'{"prompt": "next"}', {"Content-Length": "18"})
        assert replied.wait(5)
    assert status == 200 and json.loads(reply)["choices"][0]["text"] == "next"
    assert capfd.readouterr().err == ""


def test_http_client_goes_through_the_environment_proxy(recording, monkeypatch):
    with MockLLMServer(handler=recording) as proxy:
        address = urlsplit(proxy.endpoint)
        monkeypatch.setenv("HTTP_PROXY", f"http://user:p%40ss@{address.netloc}")
        # the endpoint host does not resolve: only the proxy can answer
        client = HttpCompletionClient("http://llm.invalid:8000/v1/completions?x=1", model="m")
        assert client.complete("Doc: a b\nQuery:", _settings()) == \
            deterministic_completion("Doc: a b\nQuery:")
        client.close()
        # NO_PROXY sends a request straight to its host
        monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:9")
        monkeypatch.setenv("NO_PROXY", f"example.test, {address.hostname}")
        client = HttpCompletionClient(proxy.endpoint, model="m")
        client.complete("Doc: c d\nQuery:", _settings())
        client.close()
    (target, headers, _), (direct, direct_headers, _) = recording.seen
    assert target == "http://llm.invalid:8000/v1/completions?x=1"
    assert headers["Host"] == "llm.invalid:8000"
    assert headers["Proxy-Authorization"] == "Basic dXNlcjpwQHNz"     # user:p@ss
    assert direct == "/v1/completions"
    assert "Proxy-Authorization" not in direct_headers


def test_http_client_rejects_urls_it_cannot_reach(monkeypatch):
    for endpoint in ("x", "ftp://host/v1", "http:///v1", "http://host:99999/v1"):
        with pytest.raises(EndpointError, match="endpoint"):
            HttpCompletionClient(endpoint, model="m")
    monkeypatch.setenv("HTTP_PROXY", "socks5://127.0.0.1:1080")
    with pytest.raises(EndpointError, match="proxy"):
        HttpCompletionClient("http://host/v1", model="m")


def test_generation_settings_validate():
    with pytest.raises(InvalidConfigError):
        PipelineConfig(decode_temperature=-0.1)
    with pytest.raises(InvalidConfigError):
        PipelineConfig(shots=-1)
    with pytest.raises(InvalidConfigError):
        PipelineConfig(max_doc_chars=0)
