"""Tests for miner deployment kits and script behaviours."""

import pytest

from repro.coinhive.miner_script import CoinhiveMinerKit, OFFICIAL_JS_URL, OFFICIAL_WASM_URL
from repro.core.nocoin import default_nocoin_list
from repro.internet.deployments import BenignWasmKit, FamilyMinerKit, make_canned_pool_handler
from repro.pool.protocol import JobMessage, LoginMessage, decode_message, encode_message
from repro.sim.events import EventLoop
from repro.sim.rng import RngStream
from repro.web.http import SyntheticWeb
from repro.web.scripts import InjectScriptBehavior, NoOpBehavior, ScriptTag, inline_key
from repro.web.websocket import WebSocketChannel


class TestCoinhiveKit:
    @pytest.fixture()
    def kit(self, coinhive_service):
        web = SyntheticWeb()
        kit = CoinhiveMinerKit(service=coinhive_service, web=web)
        kit.install()
        return kit

    def test_install_registers_assets(self, kit):
        assert kit.web.lookup(OFFICIAL_JS_URL).content_type == "text/javascript"
        wasm = kit.web.lookup(OFFICIAL_WASM_URL)
        assert wasm.body()[:4] == b"\x00asm"

    def test_install_registers_all_endpoints(self, kit, coinhive_service):
        for endpoint in coinhive_service.endpoints():
            assert kit.web.lookup_ws(endpoint)

    def test_official_tags_are_nocoin_visible(self, kit):
        tags = kit.official_tags("TOKEN123")
        nocoin = default_nocoin_list()
        assert nocoin.explain_url(tags[0].src) is not None

    def test_self_hosted_tags_are_nocoin_invisible(self, kit):
        tags = kit.self_hosted_tags("TOKEN123", "www.innocent.com")
        nocoin = default_nocoin_list()
        assert nocoin.explain_url(tags[0].src) is None
        # …but the wasm payload is registered and identical-family
        wasm = kit.web.lookup("https://www.innocent.com/assets/runtime.wasm").body()
        assert wasm[:4] == b"\x00asm"

    def test_behavior_deobfuscates(self, kit, coinhive_service):
        tags = kit.official_tags("TOK", endpoint_index=2)
        behavior = tags[1].behavior
        assert behavior.deobfuscate is not None
        blob = coinhive_service.pow_input_for_endpoint(coinhive_service.endpoint_name(2), 0.0)
        restored = behavior.deobfuscate(blob)
        assert restored != blob

    def test_versioned_wasm_variant(self, kit):
        tags = kit.official_tags("TOK", wasm_variant=3)
        behavior = tags[1].behavior
        assert behavior.wasm_url.endswith("-v3.wasm")
        assert kit.web.lookup(behavior.wasm_url).body()[:4] == b"\x00asm"

    def test_authedmine_variant(self, coinhive_service):
        web = SyntheticWeb()
        kit = CoinhiveMinerKit(service=coinhive_service, web=web, consent_banner=True)
        kit.install()
        tags = kit.official_tags("TOK")
        assert "authedmine" in tags[0].src
        assert "askAndStart" in tags[1].inline


class TestFamilyKit:
    @pytest.fixture()
    def kit(self):
        return FamilyMinerKit(
            family="cryptoloot", web=SyntheticWeb(), rng=RngStream(1, "kit")
        )

    def test_endpoint_urls_from_profile(self, kit):
        url = kit.endpoint_url(0)
        assert url.startswith("wss://")
        assert "crypto-loot" in url

    def test_install_idempotent(self, kit):
        kit.install()
        kit.install()
        assert len(kit.web.ws_handlers) == kit.num_endpoints

    def test_official_tags_have_family_src(self, kit):
        tags = kit.tags("TOK", official_js=True)
        assert "crypto-loot" in tags[0].src
        assert tags[1].behavior is not None

    def test_self_hosted_tags_first_party(self, kit):
        tags = kit.tags("TOKEN", self_host="www.a-site.org")
        assert "a-site.org" in tags[1].behavior.wasm_url

    def test_family_without_backend_rejected(self):
        kit = FamilyMinerKit(family="math-lib", web=SyntheticWeb(), rng=RngStream(2, "x"))
        with pytest.raises(ValueError):
            kit.endpoint_url(0)


class TestCannedPool:
    def test_speaks_protocol(self):
        loop = EventLoop()
        handler = make_canned_pool_handler(RngStream(5, "pool"))
        received = []
        channel = WebSocketChannel(url="wss://x/y", loop=loop, server_handler=handler)
        channel.on_message = received.append
        channel.send(encode_message(LoginMessage(token="T")))
        loop.run_all()
        assert received
        job = decode_message(received[0])
        assert isinstance(job, JobMessage)
        # the canned blob is structurally valid
        from repro.pool.jobs import parse_blob

        parse_blob(bytes.fromhex(job.blob_hex))

    def test_ignores_garbage_frames(self):
        loop = EventLoop()
        handler = make_canned_pool_handler(RngStream(6, "pool"))
        channel = WebSocketChannel(url="wss://x/y", loop=loop, server_handler=handler)
        channel.send("not json at all")
        loop.run_all()  # no exception


class TestBenignKit:
    def test_tags_register_wasm(self):
        kit = BenignWasmKit(web=SyntheticWeb())
        tags = kit.tags("video-codec", 1, "www.tube.com")
        wasm_urls = [u for u in kit.web.resources if u.endswith(".wasm")]
        assert len(wasm_urls) == 1
        assert tags[1].behavior is not None

    def test_shared_urls_not_duplicated(self):
        kit = BenignWasmKit(web=SyntheticWeb())
        kit.tags("video-codec", 1, "www.tube.com")
        kit.tags("video-codec", 1, "www.tube.com")
        assert len([u for u in kit.web.resources if u.endswith(".wasm")]) == 1


class TestScriptTagHelpers:
    def test_to_element_with_src(self):
        element = ScriptTag(src="https://x/y.js").to_element()
        assert element.serialize() == '<script src="https://x/y.js"></script>'

    def test_to_element_inline(self):
        element = ScriptTag(inline="var a=1;").to_element()
        assert "var a=1;" in element.serialize()

    def test_inline_key_distinct(self):
        assert inline_key("a();") != inline_key("b();")

    def test_noop_behavior(self):
        assert NoOpBehavior().run(None) is None

    def test_inject_behavior_delay(self):
        injector = InjectScriptBehavior(script=ScriptTag(src="https://x/m.js"), delay=0.5)
        assert injector.delay == 0.5
