"""Prompt assembly, completion parsing, generation fan-out, and the mock endpoint."""

import json
import threading

import pytest

from rankforge import querygen
from rankforge.config import PipelineConfig
from rankforge.errors import (
    AggregateGenerationError,
    EmptyQueryError,
    EndpointError,
    FormatError,
    InvalidConfigError,
    TemplateError,
)
from rankforge.mockllm import MockLLMServer
from rankforge.querygen import (
    FewShotExample,
    HttpCompletionClient,
    MockCompletionClient,
    PromptTemplate,
    QueryPrompt,
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
    monkeypatch.setattr(querygen, "BACKOFF_BASE", 0.0)


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
    for bad in ('{"document": 5, "query": "q"}', '{"document": "d", "query": ["q"]}'):
        path.write_text('{"document": "d", "query": "q"}\n' + bad + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 2: .* must be strings"):
            load_examples(path)


def test_load_queries_rejects_bad_lines(tmp_path):
    path = tmp_path / "q.jsonl"
    path.write_text('{"doc_id": "a", "query": "q"}\n\n{"doc_id": "b"}\n', encoding="utf-8")
    with pytest.raises(FormatError, match="line 3: query record needs"):
        load_queries(path)
    path.write_text('{"doc_id": "a", "query": "q"}\n"doc_id query"\n', encoding="utf-8")
    with pytest.raises(FormatError, match="line 2: expected a JSON object"):
        load_queries(path)
    for bad in ('{"doc_id": ["x"], "query": "q"}', '{"doc_id": "a", "query": 5}'):
        path.write_text('{"doc_id": "a", "query": "q"}\n' + bad + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 2: .* must be strings"):
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

def test_http_client_against_mock_server():
    with MockLLMServer() as server:
        client = HttpCompletionClient(server.endpoint, model="m")
        prompts = [QueryPrompt(f"d{i}", f"Document: alpha beta {i}\nRelevant Query:")
                   for i in range(6)]
        out = generate_queries(client, prompts, _settings(threads=3))
        direct = [deterministic_completion(p.text) for p in prompts]
        assert [q.query_text for q in out] == [parse_completion(t) for t in direct]


def test_http_client_retries_then_raises():
    client = HttpCompletionClient("http://127.0.0.1:1/nope", model="m")
    with pytest.raises(EndpointError):
        client.complete("prompt", _settings(max_retries=1))


def test_http_client_sends_contract_fields():
    captured = {}
    import requests

    with MockLLMServer() as server:
        body = {"model": "m2", "prompt": "Doc: x y z\nQuery:", "temperature": 0.0,
                "max_tokens": 8, "stop": ["\n"]}
        resp = requests.post(server.endpoint, json=body, timeout=5)
        assert resp.status_code == 200
        payload = resp.json()
        assert payload["choices"][0]["text"] == deterministic_completion(body["prompt"])
        captured.update(payload)
    assert captured["model"] == "m2"


def test_mock_server_rejects_bad_json():
    import requests

    with MockLLMServer() as server:
        resp = requests.post(server.endpoint, data=b"{broken", timeout=5,
                             headers={"Content-Length": "7"})
        assert resp.status_code == 400


def test_generation_settings_validate():
    with pytest.raises(InvalidConfigError):
        PipelineConfig(decode_temperature=-0.1)
    with pytest.raises(InvalidConfigError):
        PipelineConfig(shots=-1)
    with pytest.raises(InvalidConfigError):
        PipelineConfig(max_doc_chars=0)
