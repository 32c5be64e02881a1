"""The 715-query oracle battery and the operator families only it uses.
Built on the ``geotile`` engine: ``battery`` imports ``geotile``, never the
reverse (only ``geotile.cli --mode query`` loads it, lazily)."""
