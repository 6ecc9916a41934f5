"""``scripts/profile_campaign.py --memory``: the image line.

The live words are mmap-backed, outside ``tracemalloc``, so the memory
view counts images itself.  No campaign runs here.
"""

import importlib.util
import mmap
import re
from pathlib import Path

from repro.composite.memory import MemoryImage

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "profile_campaign", ROOT / "scripts" / "profile_campaign.py"
)
profile_campaign = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(profile_campaign)


def _footprint():
    """``(live, mapped KiB, OS pages written, written KiB)`` right now."""
    line = profile_campaign.image_footprint()
    match = re.fullmatch(
        r"(\d+) live, ([\d.]+) KiB mapped, (\d+) OS pages written "
        r"\(([\d.]+) KiB\)",
        line,
    )
    assert match, line
    live, mapped, pages, written = match.groups()
    return int(live), float(mapped), int(pages), float(written)


def test_image_footprint_counts_live_images_and_written_pages():
    before = _footprint()
    size = 4 * mmap.PAGESIZE  # words: four times the OS page, in bytes
    image = MemoryImage(0x0500_0000, size)
    image.write_word(image.base, 1)
    image.freeze_good_image()
    image.write_word(image.base + size - 1, 2)
    live, mapped, pages, written = _footprint()
    assert live == before[0] + 1
    assert mapped == before[1] + 4 * size / 1024
    assert pages == before[2] + 2
    assert written == pages * mmap.PAGESIZE / 1024
    del image
